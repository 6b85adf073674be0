package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/dse"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/router"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/workload"
)

// env is what a workload is prepared from.
type env struct {
	seed  int64
	scale float64 // multiplies every round's op count
	tmp   string  // directory for WAL data dirs
}

// scaled multiplies a size by the scale factor.
func (e env) scaled(n float64) float64 { return n * e.scale }

// round is one run of a workload's fixed op sequence on a fresh stack.
type round struct {
	tally
	usage
	// stats are the final figures after the drain, merged over nodes.
	// Their Deterministic view repeats bit-exactly for a seed.
	stats api.StatsResult
	// layer holds per-layer values read off the stack itself: counters
	// and one-off timings. Span-derived values come from spans.
	layer map[string]float64
	spans []span // traced rounds only
}

// runner is a prepared workload: round may be called any number of
// times, and every call does the same work. With a recorder the round is
// traced.
type runner interface {
	round(rec *recorder) (*round, error)
	// spanCapacity bounds the spans one traced round records.
	spanCapacity() int
}

type workloadSpec struct {
	name, why string
	setup     func(env) (runner, error)
}

var workloads = []workloadSpec{
	{"suite-static", "the paper's Table III suite through ScheduleJobs from one goroutine: only core, sched and schedule run", setupSuite},
	{"fleet-heavy", "in-process fleet at 0.2 req/s/device: 2-4 jobs per device, L1 hit rate under 1%, so solver, rm, cache miss/store path and mailbox do the work", setupFleetHeavy},
	{"fleet-burst", "same fleet fed coincident bursts of 4 as SubmitBatch: joint batch solves instead of single admissions", setupFleetBurst},
	{"socket-2hop", "deployed topology, client to router to node over loopback HTTP with a WAL per node: httpapi and router dominate, the solver is a few percent", setupSocket},
	{"refine-warm", "warm shared tier plus anytime refinement stepped by the client: exmem searches are most of the work and the tier's read path serves most admissions", setupRefine},
}

// library returns the paper's platform and operating-point library.
func library() (platform.Platform, *opset.Library, error) {
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		return plat, nil, fmt.Errorf("library DSE: %w", err)
	}
	return plat, lib, nil
}

// fleetWorkload is a service workload: a plan replayed against a stack.
type fleetWorkload struct {
	plat    platform.Platform
	lib     *opset.Library
	devices int
	opt     fleet.Options
	plan    *plan
	genS    float64

	socket bool
	tmp    string
	// want, when set, is the deterministic outcome every round must
	// reproduce (socket-2hop: an in-process replay of the same plan).
	want *api.StatsResult

	// refine-warm: the warm file every round loads its shared tier from,
	// and the cold-MDF energy per job the refined fleet must not exceed.
	warm        []byte
	coldJPerJob float64
}

// fleetTrace generates a fleet's requests. With spread > 0 the devices'
// rates step evenly from p.Rate·(1−spread) to p.Rate·(1+spread). The
// generator's own RateSpread draws them from the seed instead, which
// moves the fleet's total load, and with it every metric, from seed to
// seed by more than the bounds set on them.
func fleetTrace(e env, lib *opset.Library, p workload.FleetTraceParams, spread float64) ([]workload.FleetRequest, float64, error) {
	if spread > 0 {
		p.Rates = make([]float64, p.Devices)
		for d := range p.Rates {
			p.Rates[d] = p.Rate * (1 - spread + 2*spread*(float64(d)+0.5)/float64(p.Devices))
		}
	}
	p.Seed = e.seed
	p.Horizon = e.scaled(p.Horizon)
	start := time.Now()
	trace, err := workload.FleetTrace(lib, p)
	if err != nil {
		return nil, 0, fmt.Errorf("trace generation: %w", err)
	}
	if len(trace) == 0 {
		return nil, 0, fmt.Errorf("trace generation: no requests in %v s", p.Horizon)
	}
	return trace, time.Since(start).Seconds(), nil
}

// rmserve's defaults, which the service workloads share.
var serveOptions = fleet.Options{Shards: 2, Cache: true}

func setupFleetHeavy(e env) (runner, error) {
	plat, lib, err := library()
	if err != nil {
		return nil, err
	}
	const devices = 64
	trace, gen, err := fleetTrace(e, lib, workload.FleetTraceParams{Devices: devices, Rate: 0.2, Horizon: 5000}, 0.5)
	if err != nil {
		return nil, err
	}
	p := newPlan(trace, devices, clients, false)
	p.advanceEvery, p.cancelEvery = 5, 7
	return &fleetWorkload{plat: plat, lib: lib, devices: devices, opt: serveOptions, plan: p, genS: gen}, nil
}

func setupFleetBurst(e env) (runner, error) {
	plat, lib, err := library()
	if err != nil {
		return nil, err
	}
	const devices = 64
	trace, gen, err := fleetTrace(e, lib, workload.FleetTraceParams{Devices: devices, Rate: 0.02, BurstSize: 4, Horizon: 25000}, 0)
	if err != nil {
		return nil, err
	}
	p := newPlan(trace, devices, clients, true)
	p.advanceEvery = 2
	return &fleetWorkload{plat: plat, lib: lib, devices: devices, opt: serveOptions, plan: p, genS: gen}, nil
}

func setupSocket(e env) (runner, error) {
	plat, lib, err := library()
	if err != nil {
		return nil, err
	}
	const devices = 64
	trace, gen, err := fleetTrace(e, lib, workload.FleetTraceParams{Devices: devices, Rate: 0.05, Horizon: 6000}, 0.5)
	if err != nil {
		return nil, err
	}
	p := newPlan(trace, devices, clients, false)
	p.advanceEvery, p.cancelEvery, p.statsEvery = 5, 7, 256
	w := &fleetWorkload{plat: plat, lib: lib, devices: devices, plan: p, genS: gen, socket: true, tmp: e.tmp,
		opt: fleet.Options{Shards: 1, Cache: true}}
	if w.want, err = w.reference(); err != nil {
		return nil, fmt.Errorf("in-process reference replay: %w", err)
	}
	return w, nil
}

// reference replays the plan through the same router over in-process
// fleets: what the socket topology must reproduce bit for bit.
func (w *fleetWorkload) reference() (*api.StatsResult, error) {
	st := new(stack)
	backends := make([]router.Backend, socketNodes)
	for i := range backends {
		node, err := bootFleet(w.devices, w.plat, w.lib, w.opt, nil)
		if err != nil {
			st.abort()
			return nil, err
		}
		st.fleets = append(st.fleets, node.fleets...)
		backends[i] = router.Backend{Name: fmt.Sprint("ref-", i), Service: node.svc}
	}
	rt, err := router.New(backends, nil)
	if err != nil {
		st.abort()
		return nil, err
	}
	ctx := context.Background()
	if t := w.plan.run(ctx, rt, nil, nil); t.failed > 0 {
		st.abort()
		return nil, t.firstErr
	}
	if _, err := st.closeFleets(); err != nil {
		return nil, err
	}
	stats, err := rt.Stats(ctx, api.StatsRequest{})
	if err != nil {
		return nil, err
	}
	stats = stats.Deterministic()
	return &stats, nil
}

// refineBudget caps one refinement search of refine-warm, in nodes. Two
// searches in five run into it, at about 0.35 ms each, and those set the
// round's length; a round holds some 20000 of them, so that their share
// moves little from seed to seed. At rmserve's default of two million
// nodes a round could afford a few dozen, and throughput would double or
// halve with the seed.
const refineBudget = 500

func setupRefine(e env) (runner, error) {
	plat, lib, err := library()
	if err != nil {
		return nil, err
	}
	const devices = 8
	trace, gen, err := fleetTrace(e, lib, workload.FleetTraceParams{Devices: devices, Rate: 0.05, Horizon: 180000}, 0.5)
	if err != nil {
		return nil, err
	}
	// One client: with refinement stepped on the client goroutine after
	// every reply, nothing races and no offer is dropped.
	p := newPlan(trace, devices, 1, false)
	p.advanceEvery = 5
	w := &fleetWorkload{plat: plat, lib: lib, devices: devices, plan: p, genS: gen,
		opt: fleet.Options{Shards: 2, Cache: true, Refine: true, RefineWorkers: -1, RefineBudget: refineBudget}}

	// The warm file, built the way scripts/warm-cache.sh builds one: a
	// full refining pass on a throwaway fleet, then Save.
	tier := schedcache.NewShared()
	if _, err := w.replay(w.optWith(tier), nil); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	var file bytes.Buffer
	if err := tier.Save(&file); err != nil {
		return nil, fmt.Errorf("warm-up pass: save tier: %w", err)
	}
	w.warm = file.Bytes()

	cold, err := w.replay(fleet.Options{Shards: w.opt.Shards}, nil)
	if err != nil {
		return nil, fmt.Errorf("cold MDF reference pass: %w", err)
	}
	w.coldJPerJob = cold.stats.Energy / float64(cold.stats.Completed)
	return w, nil
}

func (w *fleetWorkload) spanCapacity() int { return w.plan.spanCapacity() }

func (w *fleetWorkload) optWith(tier *schedcache.Shared) fleet.Options {
	opt := w.opt
	opt.SharedCache = tier
	return opt
}

func (w *fleetWorkload) round(rec *recorder) (*round, error) {
	opt := w.opt
	var warmLoad time.Duration
	if w.warm != nil {
		tier := schedcache.NewShared()
		start := time.Now()
		if err := tier.Load(bytes.NewReader(w.warm)); err != nil {
			return nil, fmt.Errorf("load warm tier: %w", err)
		}
		warmLoad = time.Since(start)
		opt = w.optWith(tier)
	}
	r, err := w.replay(opt, rec)
	if err != nil {
		return nil, err
	}
	r.layer["workload.gen_s"] = w.genS
	r.layer["schedcache.warm_load_s"] = warmLoad.Seconds()
	if w.want != nil && r.stats.Deterministic() != *w.want {
		return nil, fmt.Errorf("routed stats differ from the in-process reference:\n got  %+v\n want %+v", r.stats.Deterministic(), *w.want)
	}
	if w.warm != nil {
		// Refinement changes which jobs later admissions meet, so "never
		// above cold MDF" is not a law; clearly above it is a fault.
		rel := r.stats.Energy / float64(r.stats.Completed) / w.coldJPerJob
		if rel > 1.01 {
			return nil, fmt.Errorf("refined fleet spent %v times the energy per job of cold MDF", rel)
		}
		r.layer["anytime.energy_vs_cold_mdf"] = rel
	}
	return r, nil
}

// replay boots a stack with opt, runs the plan against it, shuts it down
// and checks the lifecycle ledger.
func (w *fleetWorkload) replay(opt fleet.Options, rec *recorder) (*round, error) {
	var st *stack
	var err error
	if w.socket {
		st, err = bootSocket(w.devices, w.plat, w.lib, opt, w.tmp, rec)
	} else {
		st, err = bootFleet(w.devices, w.plat, w.lib, opt, rec)
	}
	if err != nil {
		return nil, err
	}
	r := &round{layer: make(map[string]float64)}
	ctx := context.Background()

	var afterAdmit func(uint64)
	refiner := st.fleets[0].Refiner()
	if refiner != nil {
		// Step the refinement queue dry after every admission reply.
		afterAdmit = func(key uint64) {
			for {
				searches := refiner.Stats().Searches
				start := time.Now()
				if !refiner.TryStep() {
					return
				}
				if rec != nil {
					op := opSkip
					if refiner.Stats().Searches > searches {
						op = opStep
					}
					rec.add(layerRefine, op, key, start, time.Now(), false)
				}
			}
		}
	}

	var t *tally
	r.usage = measure(func() { t = w.plan.run(ctx, st.svc, rec, afterAdmit) })
	r.tally = *t

	drain, err := st.closeFleets()
	if err != nil {
		st.abort()
		return nil, err
	}
	r.layer["fleet.close_drain_s"] = drain.Seconds()
	if w.socket && rec != nil {
		if err := st.nodes[0].recoveryCheck(w, opt, r.layer); err != nil {
			st.abort()
			return nil, err
		}
	}
	flush, err := st.closeWAL()
	if err != nil {
		st.abort()
		return nil, err
	}
	// The servers outlive the fleets so the final figures take the same
	// route as the traffic did.
	if r.stats, err = st.svc.Stats(ctx, api.StatsRequest{}); err != nil {
		st.abort()
		return nil, fmt.Errorf("final stats: %w", err)
	}
	if len(st.nodes) > 0 {
		r.layer["durable.close_flush_s"] = flush.Seconds()
		var appended, fsyncs, bytes int64
		for _, n := range st.nodes {
			ws := n.wal.Status()
			appended += ws.Appended
			fsyncs += ws.Fsyncs
			for _, d := range ws.Devices {
				bytes += d.SegmentBytes
			}
		}
		r.layer["durable.appended_events"] = float64(appended)
		r.layer["durable.fsyncs"] = float64(fsyncs)
		r.layer["durable.bytes_per_event"] = ratio(float64(bytes), float64(appended))
	}
	if refiner != nil {
		rs := refiner.Stats()
		r.layer["anytime.searches"] = float64(rs.Searches)
		r.layer["anytime.skipped_pct"] = 100 * ratio(float64(rs.Skipped), float64(rs.Skipped+rs.Searches))
		r.layer["anytime.useful_pct"] = 100 * ratio(float64(rs.Improved), float64(rs.Searches))
		r.layer["anytime.no_improvement"] = float64(rs.NoImprovement)
		r.layer["anytime.budget_exhausted"] = float64(rs.BudgetExhausted)
		if rs.Dropped > 0 || rs.Failed > 0 {
			st.abort()
			return nil, fmt.Errorf("refiner dropped %d offers and failed %d searches", rs.Dropped, rs.Failed)
		}
	}
	if tier := opt.SharedCache; tier != nil {
		r.layer["schedcache.exact_entries"] = float64(tier.Stats().ExactEntries)
	}
	if err := st.release(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	s := r.stats
	lookups := float64(s.CacheHits + s.CacheSharedHits + s.CacheMisses)
	r.layer["schedcache.l1_hit_pct"] = 100 * ratio(float64(s.CacheHits), lookups)
	r.layer["schedcache.shared_hit_pct"] = 100 * ratio(float64(s.CacheSharedHits), lookups)
	r.layer["schedcache.repack_pct"] = 100 * ratio(float64(s.CacheRepacks), float64(s.CacheHits+s.CacheSharedHits))
	r.layer["schedcache.stale_pct"] = 100 * ratio(float64(s.CacheStale), lookups)
	r.layer["rm.activations_per_submit"] = ratio(float64(s.Activations), float64(s.Submitted))
	r.layer["rm.swaps"] = float64(s.ScheduleSwaps)
	r.layer["fleet.max_queue_depth"] = float64(s.MaxQueueDepth)

	switch {
	case r.failed > 0:
		return nil, fmt.Errorf("%d of %d ops failed, first: %w", r.failed, r.ops, r.firstErr)
	case s.Submitted != s.Accepted+s.Rejected || s.Accepted != s.Completed+s.Cancelled:
		return nil, fmt.Errorf("lifecycle ledger does not close after the drain: %+v", s)
	case s.DeadlineMisses != 0:
		return nil, fmt.Errorf("%d deadline misses", s.DeadlineMisses)
	case int64(s.Submitted) != r.submitted || int64(s.Accepted) != r.accepted:
		return nil, fmt.Errorf("clients saw %d submitted, %d accepted; the stack reports %d, %d", r.submitted, r.accepted, s.Submitted, s.Accepted)
	case s.Completed == 0:
		return nil, errors.New("no job completed")
	}
	if rec != nil {
		if d := rec.dropped(); d > 0 {
			return nil, fmt.Errorf("span buffer too small: %d spans dropped", d)
		}
		r.spans = rec.recorded()
	}
	return r, nil
}

// recoveryCheck restarts a node from its data dir the way a daemon would
// after kill -9: the fleet has drained and the log is flushed, but the
// writer has not written its clean-shutdown snapshots, so the whole log
// replays. The recovered fleet must report the closed fleet's figures.
func (n *node) recoveryCheck(w *fleetWorkload, opt fleet.Options, layer map[string]float64) error {
	seqs := n.fleet.DeviceEventSeqs()
	deadline := time.Now().Add(10 * time.Second)
	for caughtUp := false; !caughtUp; {
		caughtUp = true
		for _, d := range n.wal.Status().Devices {
			if d.LastSeq < seqs[d.Device] {
				caughtUp = false
			}
		}
		if !caughtUp {
			if time.Now().After(deadline) {
				return errors.New("recovery check: WAL writer did not catch up with the closed fleet within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := n.wal.Sync(); err != nil {
		return fmt.Errorf("recovery check: WAL sync: %w", err)
	}
	start := time.Now()
	state, err := durable.Open(n.dir, n.meta)
	if err != nil {
		return fmt.Errorf("recovery check: durable open: %w", err)
	}
	opened := time.Now()
	rec := make(map[int]fleet.DeviceRecovery, len(state.Devices))
	for dev, ds := range state.Devices {
		rec[dev] = fleet.DeviceRecovery{Snapshot: ds.Snapshot, Events: ds.Events}
	}
	f, _, err := fleet.Recover(deviceConfigs(w.devices, w.plat, w.lib, nil, nil), opt, rec)
	if err != nil {
		return fmt.Errorf("recovery check: fleet recover: %w", err)
	}
	recovered := time.Now()
	if err := f.Close(); err != nil {
		return fmt.Errorf("recovery check: close recovered fleet: %w", err)
	}
	layer["durable.open_s"] = opened.Sub(start).Seconds()
	layer["durable.recover_events_per_s"] = ratio(float64(state.Events), recovered.Sub(start).Seconds())
	got, want := lifecycle(f.Stats()), lifecycle(n.fleet.Stats())
	if got != want {
		return fmt.Errorf("recovery check: recovered node differs from the closed one:\n got  %+v\n want %+v", got, want)
	}
	return nil
}

// lifecycle is the part of a fleet's figures recovery must reproduce:
// the ledger and the energy. Scheduler and cache counters are not
// replayed from the log.
func lifecycle(s fleet.Stats) fleet.Stats {
	return fleet.Stats{Devices: s.Devices, Submitted: s.Submitted, Accepted: s.Accepted, Rejected: s.Rejected,
		Completed: s.Completed, DeadlineMisses: s.DeadlineMisses, Cancelled: s.Cancelled, Energy: s.Energy, Swaps: s.Swaps}
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}
