// Benchmarks regenerating the paper's tables and figures. Each bench
// exercises the code path behind one table or figure and reports the
// headline quantity as a custom metric; the full-scale reproduction (all
// 1676 cases) is produced by cmd/rmeval, whose output EXPERIMENTS.md
// records.
package adaptrm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/eval"
	"adaptrm/internal/exmem"
	"adaptrm/internal/fleet"
	"adaptrm/internal/job"
	"adaptrm/internal/kpn"
	"adaptrm/internal/lagrange"
	"adaptrm/internal/motiv"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/rm"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/workload"
)

var (
	fixOnce  sync.Once
	fixPlat  platform.Platform
	fixLib   *opset.Library
	fixSuite []workload.Case
	// fixByJobs[level][j] holds up to benchCasesPerGroup case indices.
	fixByJobs map[workload.Level][4][]int
)

const benchCasesPerGroup = 8

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixPlat = platform.OdroidXU4()
		var err error
		fixLib, err = dse.StandardLibrary(fixPlat)
		if err != nil {
			panic(err)
		}
		fixSuite, err = workload.Suite(fixLib, workload.Params{Seed: 1})
		if err != nil {
			panic(err)
		}
		fixByJobs = map[workload.Level][4][]int{}
		for ci := range fixSuite {
			c := &fixSuite[ci]
			arr := fixByJobs[c.Level]
			j := len(c.Jobs) - 1
			if len(arr[j]) < benchCasesPerGroup {
				arr[j] = append(arr[j], ci)
			}
			fixByJobs[c.Level] = arr
		}
	})
}

// BenchmarkTable2DesignTimeDSE regenerates the operating-point tables
// (the paper's Table II is the per-application analogue): full virtual
// benchmarking + DSE + Pareto filtering for the three applications.
func BenchmarkTable2DesignTimeDSE(b *testing.B) {
	plat := platform.OdroidXU4()
	for i := 0; i < b.N; i++ {
		lib, err := dse.StandardLibrary(plat)
		if err != nil {
			b.Fatal(err)
		}
		if lib.Len() != 9 {
			b.Fatal("wrong library")
		}
	}
}

// BenchmarkFig1Motivational schedules scenario S1 with the three policies
// of Fig. 1 and reports their energies as metrics (16.96/15.49/14.63 J in
// the paper).
func BenchmarkFig1Motivational(b *testing.B) {
	plat := motiv.Platform()
	policies := []sched.Scheduler{
		NewFixedMapper(false), NewFixedMapper(true), NewMMKPMDF(),
	}
	energies := make([]float64, len(policies))
	for i := 0; i < b.N; i++ {
		jobs := job.Set(motiv.ScenarioS1AtT1())
		for pi, s := range policies {
			k, err := s.Schedule(jobs, plat, 1)
			if err != nil {
				b.Fatal(err)
			}
			energies[pi] = k.Energy(jobs) + motiv.EnergyBeforeT1
		}
	}
	b.ReportMetric(energies[0], "J-fixed")
	b.ReportMetric(energies[1], "J-fixed-remap")
	b.ReportMetric(energies[2], "J-adaptive")
}

// BenchmarkTable3WorkloadGeneration regenerates the 1676-case suite.
func BenchmarkTable3WorkloadGeneration(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		cases, err := workload.Suite(fixLib, workload.Params{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(cases) != 1676 {
			b.Fatalf("%d cases", len(cases))
		}
	}
}

// benchSubSuite assembles the per-group bench sample as a suite.
func benchSubSuite(b *testing.B) []workload.Case {
	fixtures(b)
	var cases []workload.Case
	for _, level := range []workload.Level{workload.Weak, workload.Tight} {
		for j := 0; j < 4; j++ {
			for _, ci := range fixByJobs[level][j] {
				cases = append(cases, fixSuite[ci])
			}
		}
	}
	return cases
}

// BenchmarkFig2SchedulingRate runs the three schedulers over a fixed
// sample of the suite and reports tight-deadline scheduling rates.
func BenchmarkFig2SchedulingRate(b *testing.B) {
	cases := benchSubSuite(b)
	var rate *eval.RateReport
	for i := 0; i < b.N; i++ {
		res, err := eval.Run(cases, []sched.Scheduler{exmem.New(), lagrange.New(), core.New()},
			fixPlat, eval.RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		rate = eval.NewRateReport(res, workload.Tight)
	}
	b.ReportMetric(rate.Rate["EX-MEM"][3]*100, "%rate-exmem-4j")
	b.ReportMetric(rate.Rate["MMKP-LR"][3]*100, "%rate-lr-4j")
	b.ReportMetric(rate.Rate["MMKP-MDF"][3]*100, "%rate-mdf-4j")
}

// BenchmarkTable4RelativeEnergy computes geomean relative energies vs
// EX-MEM over the fixed sample (the paper's Table IV aggregation).
func BenchmarkTable4RelativeEnergy(b *testing.B) {
	cases := benchSubSuite(b)
	var er *eval.EnergyReport
	for i := 0; i < b.N; i++ {
		res, err := eval.Run(cases, []sched.Scheduler{exmem.New(), lagrange.New(), core.New()},
			fixPlat, eval.RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		er, err = eval.NewEnergyReport(res, "EX-MEM")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(er.AllLevels["MMKP-MDF"], "relE-mdf")
	b.ReportMetric(er.AllLevels["MMKP-LR"], "relE-lr")
}

// BenchmarkFig3SCurve derives the S-curves and reports the share of
// optimally scheduled cases (paper: MDF 69.6%, LR 9.0%).
func BenchmarkFig3SCurve(b *testing.B) {
	cases := benchSubSuite(b)
	res, err := eval.Run(cases, []sched.Scheduler{exmem.New(), lagrange.New(), core.New()},
		fixPlat, eval.RunOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	er, err := eval.NewEnergyReport(res, "EX-MEM")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sc *eval.SCurveReport
	for i := 0; i < b.N; i++ {
		sc = eval.NewSCurveReport(er)
	}
	for _, s := range []string{"MMKP-MDF", "MMKP-LR"} {
		if n := len(sc.Curves[s]); n > 0 {
			b.ReportMetric(100*float64(sc.OptimalCount[s])/float64(n), "%opt-"+s)
		}
	}
}

// Fig. 4: per-scheduler scheduling latency by job count. These are the
// benches whose ns/op directly regenerate the boxplot medians.
func benchScheduler(b *testing.B, s sched.Scheduler, jobs int, level workload.Level) {
	fixtures(b)
	idxs := fixByJobs[level][jobs-1]
	if len(idxs) == 0 {
		b.Skip("no cases")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &fixSuite[idxs[i%len(idxs)]]
		_, err := s.Schedule(c.Jobs, fixPlat, c.T0)
		if err != nil && err != sched.ErrInfeasible && err != exmem.ErrBudget {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4SearchTimeMDF1Job(b *testing.B)  { benchScheduler(b, core.New(), 1, workload.Tight) }
func BenchmarkFig4SearchTimeMDF2Jobs(b *testing.B) { benchScheduler(b, core.New(), 2, workload.Tight) }
func BenchmarkFig4SearchTimeMDF3Jobs(b *testing.B) { benchScheduler(b, core.New(), 3, workload.Tight) }
func BenchmarkFig4SearchTimeMDF4Jobs(b *testing.B) { benchScheduler(b, core.New(), 4, workload.Tight) }

func BenchmarkFig4SearchTimeLR1Job(b *testing.B) {
	benchScheduler(b, lagrange.New(), 1, workload.Tight)
}
func BenchmarkFig4SearchTimeLR2Jobs(b *testing.B) {
	benchScheduler(b, lagrange.New(), 2, workload.Tight)
}
func BenchmarkFig4SearchTimeLR3Jobs(b *testing.B) {
	benchScheduler(b, lagrange.New(), 3, workload.Tight)
}
func BenchmarkFig4SearchTimeLR4Jobs(b *testing.B) {
	benchScheduler(b, lagrange.New(), 4, workload.Tight)
}

func BenchmarkFig4SearchTimeEXMEM1Job(b *testing.B) {
	benchScheduler(b, exmem.New(), 1, workload.Tight)
}
func BenchmarkFig4SearchTimeEXMEM2Jobs(b *testing.B) {
	benchScheduler(b, exmem.New(), 2, workload.Tight)
}
func BenchmarkFig4SearchTimeEXMEM3Jobs(b *testing.B) {
	benchScheduler(b, exmem.New(), 3, workload.Tight)
}
func BenchmarkFig4SearchTimeEXMEM4Jobs(b *testing.B) {
	benchScheduler(b, exmem.New(), 4, workload.Tight)
}

// Ablation: MDF job selection vs EDF and arrival order (DESIGN.md calls
// out the selection policy as the heuristic's key design choice).
func benchSelection(b *testing.B, sel core.Selection) {
	fixtures(b)
	s := core.NewWithOptions(core.Options{Selection: sel})
	idxs := fixByJobs[workload.Tight][3]
	ok := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &fixSuite[idxs[i%len(idxs)]]
		if _, err := s.Schedule(c.Jobs, fixPlat, c.T0); err == nil {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N)*100, "%scheduled")
}

func BenchmarkAblationSelectMDF(b *testing.B)     { benchSelection(b, core.SelectMDF) }
func BenchmarkAblationSelectEDF(b *testing.B)     { benchSelection(b, core.SelectEDF) }
func BenchmarkAblationSelectArrival(b *testing.B) { benchSelection(b, core.SelectArrival) }

// Ablation: operating-point table size. Larger tables give schedulers
// more choices (better energy) at higher search cost; the paper bounds
// them via Pareto filtering and the DSE thins them further.
func BenchmarkAblationTableSize(b *testing.B) {
	plat := platform.OdroidXU4()
	for _, size := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("%02dpts", size), func(b *testing.B) {
			lib, err := dse.ExploreSuite(kpn.BenchmarkSuite(), plat,
				dse.Options{MaxPointsPerTable: size})
			if err != nil {
				b.Fatal(err)
			}
			cases, err := workload.Suite(lib, workload.Params{
				Seed:   5,
				Counts: map[workload.Level][4]int{workload.Tight: {0, 0, 4, 4}},
			})
			if err != nil {
				b.Fatal(err)
			}
			s := core.New()
			energy := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &cases[i%len(cases)]
				if k, err := s.Schedule(c.Jobs, plat, c.T0); err == nil {
					energy = k.Energy(c.Jobs)
				}
			}
			_ = energy
		})
	}
}

// Ablation: Algorithm 2 (EDF packing) in isolation via the map-keyed
// compatibility wrapper, which allocates a packer and materialises the
// schedule per call.
func BenchmarkAblationPackEDF(b *testing.B) {
	jobs := job.Set(motiv.ScenarioS1AtT1())
	plat := motiv.Platform()
	p1 := jobs.ByID(1).Table.ByAlloc(platform.Alloc{2, 1})[0]
	p2 := jobs.ByID(2).Table.ByAlloc(platform.Alloc{2, 1})[0]
	asg := sched.Assignment{1: p1, 2: p2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.PackEDF(jobs, asg, plat, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the same packing through a warm reusable Packer — the
// actual inner loop of MMKP-MDF, which packs with zero heap allocations
// (the allocs/op gate pins this at 0).
func BenchmarkAblationPackEDFReuse(b *testing.B) {
	jobs := job.Set(motiv.ScenarioS1AtT1())
	plat := motiv.Platform()
	p1 := jobs.ByID(1).Table.ByAlloc(platform.Alloc{2, 1})[0]
	p2 := jobs.ByID(2).Table.ByAlloc(platform.Alloc{2, 1})[0]
	packer := sched.NewPacker(plat)
	dense := sched.Assignment{1: p1, 2: p2}.Dense(jobs, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := packer.Pack(jobs, dense, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the warm batch path — one reusable Packer packing a
// burst-sized job set, the inner loop of a batched admission's joint
// solve. Like the single-submit path (AblationPackEDFReuse) it must
// stay allocation-free; the allocs/op gate pins it at 0.
func BenchmarkAblationPackEDFBatchReuse(b *testing.B) {
	base := job.Set(motiv.ScenarioS1AtT1())
	tables := []*opset.Table{base.ByID(1).Table, base.ByID(2).Table}
	var jobs job.Set
	for i := 0; i < 6; i++ {
		jobs = append(jobs, &job.Job{
			ID:        i + 1,
			Table:     tables[i%2],
			Arrival:   1,
			Deadline:  100 + 10*float64(i),
			Remaining: 1,
		})
	}
	plat := motiv.Platform()
	packer := sched.NewPacker(plat)
	dense := sched.NewDenseAssignment(len(jobs))
	for i, j := range jobs {
		dense[i] = int32(j.Table.ByAlloc(platform.Alloc{2, 1})[0])
	}
	if err := packer.Pack(jobs, dense, 1); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := packer.Pack(jobs, dense, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the online runtime manager on a dynamic trace (throughput of
// the full activation path: advance, schedule, commit).
func BenchmarkOnlineManagerTrace(b *testing.B) {
	fixtures(b)
	trace, err := workload.Trace(fixLib, workload.TraceParams{Rate: 0.2, Horizon: 120, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr, err := rm.New(fixPlat, fixLib, core.New(), rm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, req := range trace {
			if _, _, _, err := mgr.Submit(req.At, req.App, req.Deadline); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := mgr.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// Batched admission under bursty traffic: the same coincident-arrival
// fleet trace (every Poisson event brings a burst of 4 same-device
// requests) replayed with and without a batch window. Replay's
// fire-and-forget enqueue lets mailboxes fill, so the workers can
// coalesce queued same-device submits into single SubmitBatch
// activations over the warm packer. Reported metrics: end-to-end
// requests/sec, scheduler activations per request (the quantity
// batching amortises — admission and energy statistics are identical
// by the equivalence suite), and the share of requests that rode in a
// coalesced batch.
func benchFleetBursty(b *testing.B, window float64) {
	fixtures(b)
	const devices = 8
	trace, err := workload.FleetTrace(fixLib, workload.FleetTraceParams{
		Devices: devices, Rate: 0.02, Horizon: 600, BurstSize: 4, Seed: 23,
	})
	if err != nil {
		b.Fatal(err)
	}
	var last fleet.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		devs := make([]fleet.DeviceConfig, devices)
		for d := range devs {
			devs[d] = fleet.DeviceConfig{Platform: fixPlat, Library: fixLib, Scheduler: core.New()}
		}
		f, err := fleet.New(devs, fleet.Options{Shards: 4, BatchWindow: window})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Replay(trace); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		last = f.Stats()
	}
	reqs := float64(len(trace)) * float64(b.N)
	b.ReportMetric(reqs/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(last.Activations)/float64(last.Submitted), "activations/req")
	b.ReportMetric(100*float64(last.CoalescedRequests)/float64(last.Submitted), "%coalesced")
}

func BenchmarkFleetBurstyUnbatched(b *testing.B) { benchFleetBursty(b, 0) }
func BenchmarkFleetBurstyBatched(b *testing.B)   { benchFleetBursty(b, 0.05) }

// Anytime refinement on a warm fleet: the tentpole measurement of the
// "exact quality at heuristic latency" subsystem. A warm-up pass runs
// the full trace with background refinement and promotes every exact
// result into a fleet-wide shared cache tier; the measured pass then
// replays the same trace through the synchronous admission path against
// that warm tier, with refinement still running for anything the tier
// does not cover. Admissions are served at cache-lookup latency with
// EX-MEM-quality schedules — compare the reported p99 and J against
// BenchmarkFleetAnytimeColdMDF, the heuristic-only baseline. Reported
// metrics: p50/p99 synchronous admission latency (µs), total executed
// energy of the last iteration (J), shared-tier hits and refinement
// swaps per iteration.
func benchFleetAnytime(b *testing.B, warm, refine bool) {
	fixtures(b)
	const devices = 8
	trace, err := workload.FleetTrace(fixLib, workload.FleetTraceParams{
		Devices: devices, Rate: 0.05, RateSpread: 0.5, Horizon: 600, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	newFleet := func(shared *schedcache.Shared, refine bool, workers int) *fleet.Fleet {
		devs := make([]fleet.DeviceConfig, devices)
		for d := range devs {
			devs[d] = fleet.DeviceConfig{Platform: fixPlat, Library: fixLib, Scheduler: core.New()}
		}
		opt := fleet.Options{Shards: 4, Cache: true, SharedCache: shared}
		if refine {
			opt.Refine = true
			opt.RefineWorkers = workers
		}
		f, err := fleet.New(devs, opt)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	var shared *schedcache.Shared
	if warm {
		shared = schedcache.NewShared()
		wf := newFleet(shared, true, 2)
		if err := wf.Replay(trace); err != nil {
			b.Fatal(err)
		}
		if err := wf.Close(); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]time.Duration, 0, len(trace)*b.N)
	var last fleet.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newFleet(shared, refine, 2)
		svc := f.Service()
		for _, r := range trace {
			start := time.Now()
			_, err := svc.Submit(context.Background(), api.SubmitRequest{
				Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline,
			})
			lat = append(lat, time.Since(start))
			if err != nil && !errors.Is(err, api.ErrInfeasible) {
				b.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		last = f.Stats()
	}
	b.StopTimer()
	sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-µs")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds())/1e3, "p99-µs")
	b.ReportMetric(last.Energy, "J")
	b.ReportMetric(float64(last.CacheSharedHits), "shared-hits")
	b.ReportMetric(float64(last.Swaps), "swaps")
}

func BenchmarkFleetAnytimeWarm(b *testing.B) { benchFleetAnytime(b, true, true) }

// The heuristic-only baseline: same trace, same synchronous admission
// path, no shared tier and no refinement — pure MMKP-MDF latency and
// energy, the row BenchmarkFleetAnytimeWarm is read against.
func BenchmarkFleetAnytimeColdMDF(b *testing.B) { benchFleetAnytime(b, false, false) }
