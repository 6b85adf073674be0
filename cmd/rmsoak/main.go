// Command rmsoak drives a live rmserve daemon with an open-loop load of
// admission traffic and reports client-side latency percentiles next to
// the server's own stats counters — the socket-level counterpart of
// the in-process benchmarks.
//
// The load is a seeded workload.FleetTrace (the same generator rmserve
// replays in-process), so the virtual-time request stream is
// reproducible; only the wall-clock pacing is load-dependent. Workers
// own disjoint device sets (device mod concurrency), preserving each
// device's non-decreasing virtual-time order, while a shared ticket
// counter paces the aggregate offered rate: ticket n fires at
// start + n/rps regardless of which worker drew it, so a slow worker
// never slows the others down (open loop). Every -advance-every
// submits a worker advances its device's clock to the newest arrival
// time, completing jobs; every -cancel-every accepted submits it
// cancels the most recent admission.
//
// Latencies are recorded per op kind in an HDR-style histogram
// (~1.6% relative error; see internal/metrics), so p99.9 of a
// million-op run costs a few fixed KiB, not a sample array. Admission
// rejections (infeasible), cancels of already-completed jobs (unknown
// job) and overloaded refusals (a daemon in ModeShedding protecting
// itself, or mailbox backpressure) are expected outcomes, counted but
// not errors; every other failure is a transport error. Before and
// after the run rmsoak reads the fleet-wide GET /v1/stats (the same
// counters /metrics exports) and reconciles the server's submitted
// delta against its own count — shed requests never reach a device, so
// the reconciliation stays exact while the daemon degrades — and checks
// the shed delta against the client-observed overloaded count.
// -strict turns transport errors or a failed reconciliation into a
// non-zero exit for CI; an intentionally-shedding daemon still passes.
// -max-p99 additionally bounds the client-side submit p99 (the
// overload-stage CI assertion).
//
// -addr takes a single daemon, or a comma-separated list: workers
// round-robin across the listed addresses (worker w drives address
// w mod len), so the same flag soaks one node, a multi-node router
// front-end, or the nodes directly. A device always belongs to one
// worker and hence one address, preserving per-device order, and the
// reconciliation sums the counters over every listed address — list
// either the router or its nodes, never both (the router's merged
// counters would double-count).
//
// Usage:
//
//	rmsoak -addr http://127.0.0.1:8080[,http://...] [-token SECRET]
//	       [-rps 200] [-concurrency 4] [-duration 10s]
//	       [-devices 8] [-seed 1] [-burst N] [-burst-window S]
//	       [-advance-every 5] [-cancel-every 7]
//	       [-tsv FILE] [-strict] [-max-p99 D]
//
// -devices must match the daemon's fleet size (requests address devices
// [0, devices)). The trace's applications come from the same standard
// library rmserve loads, so names resolve on the daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/dse"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/metrics"
	"adaptrm/internal/platform"
	"adaptrm/internal/workload"
)

// opKinds are the reported op categories, in report order.
var opKinds = []string{"submit", "advance", "cancel"}

// soakStats is the shared tally all workers add into.
type soakStats struct {
	lat [3]*metrics.HDR // per op kind, indexed like opKinds

	submits    atomic.Int64 // submit round-trips with an admission verdict
	accepted   atomic.Int64
	rejected   atomic.Int64
	advances   atomic.Int64
	cancels    atomic.Int64
	unknown    atomic.Int64 // cancels of already-finished jobs (expected)
	overloaded atomic.Int64 // ops refused with the overloaded taxonomy error: load shed by a degrading daemon or mailbox backpressure — deliberate protection, not a failure
	transport  atomic.Int64 // everything else: the soak's failure signal
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the rmserve daemon, or a comma-separated list (workers round-robin across them; reconciliation sums every listed address's stats, so list either a router or its nodes, never both)")
	token := flag.String("token", "", "bearer token (when the daemon runs tenanted)")
	rps := flag.Float64("rps", 200, "aggregate offered rate in ops/sec (open loop)")
	concurrency := flag.Int("concurrency", 4, "worker goroutines (each owns devices d with d%concurrency==w)")
	duration := flag.Duration("duration", 10*time.Second, "soak length")
	devices := flag.Int("devices", 8, "fleet size of the target daemon")
	seed := flag.Int64("seed", 1, "trace seed")
	burst := flag.Int("burst", 0, "burst size of the generated trace (≤1 = plain Poisson)")
	burstWindow := flag.Float64("burst-window", 0, "burst spread in virtual seconds")
	advanceEvery := flag.Int("advance-every", 5, "advance a device's clock every N of its submits (0 = never)")
	cancelEvery := flag.Int("cancel-every", 7, "cancel every Nth accepted job (0 = never)")
	tsv := flag.String("tsv", "", "write the machine-readable latency table to this file ('-' = stdout)")
	strict := flag.Bool("strict", false, "exit non-zero on transport errors or a failed stats reconciliation (shed overloaded errors are expected outcomes, not failures)")
	maxP99 := flag.Duration("max-p99", 0, "exit non-zero when the client-side submit p99 exceeds this bound (0 = no bound; for overload-stage CI)")
	flag.Parse()
	if *rps <= 0 || *concurrency <= 0 || *devices <= 0 || *duration <= 0 {
		fatal(errors.New("rps, concurrency, devices and duration must be positive"))
	}

	// The trace must outlast the run at the offered rate; 25% headroom
	// plus one op per worker covers pacing jitter. The virtual horizon
	// is fixed: virtual time is decoupled from wall pacing, it only
	// shapes deadlines and arrival spacing.
	const horizon = 1000.0
	lib, err := dse.StandardLibrary(platform.OdroidXU4())
	if err != nil {
		fatal(err)
	}
	n := int(math.Ceil(*rps*duration.Seconds()*1.25)) + *concurrency
	trace, err := workload.FleetTrace(lib, workload.FleetTraceParams{
		Devices: *devices, Rate: float64(n) / (float64(*devices) * horizon), Horizon: horizon,
		Seed: *seed, BurstSize: *burst, BurstWindow: *burstWindow,
	})
	if err != nil {
		fatal(err)
	}

	// One client per listed address; worker w drives clients[w%len].
	// A device is always owned by one worker, hence one client, so
	// per-device virtual-time order survives a multi-address soak.
	addrs := splitAddrs(*addr)
	if len(addrs) == 0 {
		fatal(errors.New("-addr lists no addresses"))
	}
	clients := make([]*httpapi.Client, len(addrs))
	ctx := context.Background()
	for i, a := range addrs {
		clients[i] = httpapi.NewClient(a, *token, &http.Client{Timeout: 30 * time.Second})
		if err := clients[i].Health(ctx); err != nil {
			fatal(fmt.Errorf("daemon not answering at %s: %w", a, err))
		}
	}
	before, err := fleetStats(ctx, clients, addrs)
	if err != nil {
		fatal(fmt.Errorf("pre-run stats query: %w", err))
	}

	st := &soakStats{}
	for i := range st.lat {
		st.lat[i] = new(metrics.HDR)
	}
	var tickets atomic.Int64
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(ctx, clients[w%len(clients)], trace, st, workerConfig{
				id: w, concurrency: *concurrency, rps: *rps,
				start: start, deadline: deadline, tickets: &tickets,
				advanceEvery: *advanceEvery, cancelEvery: *cancelEvery,
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fleetStats(ctx, clients, addrs)
	reconciled := false
	shedDelta := int64(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsoak: post-run stats query:", err)
	} else {
		// Shed submits were refused before reaching a device, so they are
		// absent from both the client submit count and the server
		// submitted counter — the reconciliation stays exact while the
		// daemon degrades. The shed counter reconciles separately: the
		// server cannot have shed more than this (sole) client observed
		// as overloaded errors.
		reconciled = int64(after.Submitted-before.Submitted) == st.submits.Load()
		shedDelta = int64(after.Shed - before.Shed)
	}

	printReport(os.Stdout, *addr, *rps, *concurrency, elapsed, st, int64(before.Submitted), int64(after.Submitted), shedDelta, err == nil, reconciled)
	if *tsv != "" {
		if err := writeTSV(*tsv, st); err != nil {
			fatal(err)
		}
	}
	fail := false
	if *strict && (st.transport.Load() > 0 || err != nil || !reconciled) {
		fmt.Fprintln(os.Stderr, "rmsoak: strict mode: transport errors or reconciliation failure")
		fail = true
	}
	if *strict && err == nil && shedDelta > st.overloaded.Load() {
		fmt.Fprintf(os.Stderr, "rmsoak: strict mode: server shed %d but client observed only %d overloaded errors\n",
			shedDelta, st.overloaded.Load())
		fail = true
	}
	if *maxP99 > 0 {
		if p99 := time.Duration(st.lat[0].Quantile(0.99)); p99 > *maxP99 {
			fmt.Fprintf(os.Stderr, "rmsoak: submit p99 %v exceeds bound %v\n",
				p99.Round(time.Microsecond), *maxP99)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

type workerConfig struct {
	id, concurrency int
	rps             float64
	start, deadline time.Time
	tickets         *atomic.Int64
	advanceEvery    int
	cancelEvery     int
}

// worker replays its share of the trace — the devices it owns, in trace
// order — pacing each op with a global ticket. It returns when the wall
// deadline passes or its share is exhausted.
func worker(ctx context.Context, client *httpapi.Client, trace []workload.FleetRequest, st *soakStats, cfg workerConfig) {
	// lastJob remembers the most recent admitted job per owned device
	// for -cancel-every; submitsSeen counts per-device submits for
	// -advance-every.
	lastJob := map[int]int{}
	submitsSeen := map[int]int{}
	acceptedSeen := 0
	for _, r := range trace {
		if r.Device%cfg.concurrency != cfg.id {
			continue
		}
		// Open-loop pacing: the n-th op fleet-wide fires at start+n/rps,
		// whichever worker drew the ticket.
		n := cfg.tickets.Add(1) - 1
		at := cfg.start.Add(time.Duration(float64(n) / cfg.rps * float64(time.Second)))
		if at.After(cfg.deadline) {
			return
		}
		time.Sleep(time.Until(at))

		t0 := time.Now()
		res, err := client.Submit(ctx, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
		st.lat[0].Observe(int64(time.Since(t0)))
		switch {
		case err == nil:
			st.submits.Add(1)
			st.accepted.Add(1)
			lastJob[r.Device] = res.JobID
			acceptedSeen++
		case errors.Is(err, api.ErrInfeasible):
			st.submits.Add(1)
			st.rejected.Add(1)
		case errors.Is(err, api.ErrOverloaded):
			// Shed before any scheduler activation (or bounced off a full
			// mailbox): the request never reached the device, so it is
			// deliberately NOT a submit — the submitted-counter
			// reconciliation stays exact while the daemon sheds.
			st.overloaded.Add(1)
			continue
		default:
			st.transport.Add(1)
			continue // the device clock may not have advanced; skip follow-ups
		}

		submitsSeen[r.Device]++
		if cfg.advanceEvery > 0 && submitsSeen[r.Device]%cfg.advanceEvery == 0 {
			t0 = time.Now()
			_, err := client.Advance(ctx, api.AdvanceRequest{Device: r.Device, To: r.At})
			st.lat[1].Observe(int64(time.Since(t0)))
			switch {
			case err == nil:
				st.advances.Add(1)
			case errors.Is(err, api.ErrOverloaded):
				st.overloaded.Add(1)
			default:
				st.transport.Add(1)
			}
		}
		if cfg.cancelEvery > 0 && acceptedSeen > 0 && acceptedSeen%cfg.cancelEvery == 0 {
			if job, ok := lastJob[r.Device]; ok {
				delete(lastJob, r.Device)
				t0 = time.Now()
				_, err := client.Cancel(ctx, api.CancelRequest{Device: r.Device, JobID: job})
				st.lat[2].Observe(int64(time.Since(t0)))
				switch {
				case err == nil:
					st.cancels.Add(1)
				case errors.Is(err, api.ErrUnknownJob):
					// The job completed under an earlier advance: expected.
					st.unknown.Add(1)
				case errors.Is(err, api.ErrOverloaded):
					st.overloaded.Add(1)
				default:
					st.transport.Add(1)
				}
			}
		}
	}
}

// splitAddrs parses the -addr flag: a comma-separated address list,
// empty elements dropped.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// fleetStats merges the fleet-wide stats of every listed address.
// Against a single node (or a router, whose stats already merge its
// backends) this is one call; against a node list the sum reconstructs
// the fleet-wide count, since each device's submits land on exactly
// one node.
func fleetStats(ctx context.Context, clients []*httpapi.Client, addrs []string) (api.StatsResult, error) {
	res := make([]api.StatsResult, len(clients))
	for i, c := range clients {
		var err error
		if res[i], err = c.Stats(ctx, api.StatsRequest{}); err != nil {
			return api.StatsResult{}, fmt.Errorf("%s: %w", addrs[i], err)
		}
	}
	return api.MergeStats(res), nil
}

func printReport(w io.Writer, addr string, rps float64, concurrency int, elapsed time.Duration, st *soakStats, before, after, shedDelta int64, scraped, reconciled bool) {
	total := st.submits.Load() + st.advances.Load() + st.cancels.Load() + st.unknown.Load() +
		st.overloaded.Load() + st.transport.Load()
	fmt.Fprintln(w, "rmsoak report")
	fmt.Fprintln(w, "-------------")
	fmt.Fprintf(w, "target:    %s\n", addr)
	fmt.Fprintf(w, "offered:   %g ops/s open-loop, %d workers, %v elapsed\n", rps, concurrency, elapsed.Round(time.Millisecond))
	// The ticket pacing gates submits; advances and cancels ride along
	// with their submit, so the achieved total can exceed the offered
	// submit rate.
	fmt.Fprintf(w, "achieved:  %.0f ops/s (%d ops incl. follow-ups)\n", float64(total)/elapsed.Seconds(), total)
	fmt.Fprintf(w, "ops:       %d submits (%d accepted, %d rejected), %d advances, %d cancels (+%d already done)\n",
		st.submits.Load(), st.accepted.Load(), st.rejected.Load(), st.advances.Load(), st.cancels.Load(), st.unknown.Load())
	fmt.Fprintf(w, "errors:    %d transport, %d overloaded (shed by the server — deliberate, not a failure)\n",
		st.transport.Load(), st.overloaded.Load())
	for i, kind := range opKinds {
		h := st.lat[i]
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "latency:   %-8s p50 %-9v p90 %-9v p99 %-9v p99.9 %-9v max %-9v mean %v\n",
			kind,
			time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.9)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.999)).Round(time.Microsecond),
			time.Duration(h.Max()).Round(time.Microsecond),
			time.Duration(h.Mean()).Round(time.Microsecond))
	}
	switch {
	case !scraped:
		fmt.Fprintf(w, "server:    stats query failed\n")
	case reconciled:
		fmt.Fprintf(w, "server:    submitted %d → %d (delta %d) — reconciles with client count\n",
			before, after, after-before)
	default:
		fmt.Fprintf(w, "server:    submitted %d → %d (delta %d) — MISMATCH vs client %d\n",
			before, after, after-before, st.submits.Load())
	}
	if scraped && (shedDelta > 0 || st.overloaded.Load() > 0) {
		fmt.Fprintf(w, "shedding:  server shed %d, client observed %d overloaded\n",
			shedDelta, st.overloaded.Load())
	}
}

// writeTSV emits one row per op kind: kind, count, then the latency
// figures in nanoseconds — stable columns for plotting or diffing runs.
func writeTSV(path string, st *soakStats) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	fmt.Fprintln(out, "op\tcount\tp50_ns\tp90_ns\tp99_ns\tp999_ns\tmax_ns\tmean_ns")
	for i, kind := range opKinds {
		h := st.lat[i]
		fmt.Fprintf(out, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f\n",
			kind, h.Count(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Quantile(0.999),
			h.Max(), h.Mean())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmsoak:", err)
	os.Exit(1)
}
