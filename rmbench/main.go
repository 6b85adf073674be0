// Command rmbench is the repository's benchmark: five workloads that
// stress different layers of the stack, from the MMKP-MDF solver alone to
// the deployed client → router → node topology over loopback HTTP, each
// reporting the same end-to-end metrics and, in a separate traced run,
// per-layer metrics recorded by this package's own wrappers around the
// layers' public entry points. README.md defines every workload and
// metric and says which layer metric should move which end-to-end one.
//
// A workload's op sequence is fixed by the seed: a run boots a fresh
// stack, replays the sequence, shuts the stack down and checks the
// outcome — one round — and repeats rounds until -seconds have been
// measured. Timings are medians over rounds or quantiles over all ops;
// the deterministic figures (energy, acceptance, every counter) repeat
// bit-exactly from round to round, which each run verifies.
//
// Usage:
//
//	rmbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-scale F]
//	rmbench [-workload all] [-runs N] ...   every workload, both modes, in child processes
//	rmbench -compare A.json B.json           verdict per workload and end-to-end metric
//	rmbench -spec                            print BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"adaptrm/internal/stats"
)

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// A run prepares its workload at least minSetups times and for at least
// minSetupTime in total; setup_s is the median, so that neither one slow
// set-up nor the timer's grain on a millisecond set-up reads as a change.
// The tests set up once.
const (
	minSetups    = 3
	minSetupTime = 300 * time.Millisecond
)

// watchdogLimit turns a hang into a named failure before the driver's
// own time limit kills the run without a message.
const watchdogLimit = 150 * time.Second

type options struct {
	workload     string
	env          env
	seconds      int
	traced       bool
	traceOut     string
	minSetups    int
	minSetupTime time.Duration
}

func main() {
	o := options{minSetups: minSetups, minSetupTime: minSetupTime}
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.env.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "seconds to measure per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the last traced round's spans to this file as JSON lines")
	flag.Float64Var(&o.env.scale, "scale", 1, "multiply every round's op count")
	flag.StringVar(&o.env.tmp, "tmp", ".bench_build/tmp", "directory for WAL data dirs, created if missing")
	runs := flag.Int("runs", 1, "with -workload all: runs per workload and mode")
	compare := flag.Bool("compare", false, "compare two result files: rmbench -compare A.json B.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.traced = *trace != 0

	var err error
	switch {
	case *spec:
		var doc []byte
		if doc, err = benchmarkJSON(); err == nil {
			fmt.Printf("%s\n", doc)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case o.env.scale <= 0 || o.seconds < 0 || *runs < 1:
		err = errors.New("-scale must be positive, -seconds non-negative, -runs at least 1")
	case o.workload == "all":
		err = runAll(o, *runs)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmbench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// runOne runs one workload in this process and prints its metrics: a
// table, then the result object as the last line.
func runOne(o options) error {
	spec, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.env.tmp, 0o755); err != nil {
		return err
	}
	phase := "set-up"
	watchdog := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "rmbench: workload %s hung in %s for %v\n", spec.name, phase, watchdogLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := measureWorkload(spec, o, &phase)
	if err != nil {
		return fmt.Errorf("workload %s: %s: %w", spec.name, phase, err)
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	fmt.Printf("workload %s, seed %d, scale %g\n", spec.name, o.env.seed, o.env.scale)
	for _, m := range specs {
		fmt.Printf("  %-32s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// measureWorkload prepares the workload, runs rounds until the measuring
// time is used up and derives the metrics of the requested mode.
func measureWorkload(spec workloadSpec, o options, phase *string) (*result, error) {
	var w runner
	var setups []float64
	for begin := time.Now(); len(setups) < max(1, o.minSetups) || time.Since(begin) < o.minSetupTime; {
		start := time.Now()
		var err error
		if w, err = spec.setup(o.env); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// In a traced run untraced and traced rounds alternate, so that both
	// see the same machine state and their difference is the tracing
	// overhead.
	var plain, traced []*round
	var measured time.Duration
	for i := 0; measured < time.Duration(o.seconds)*time.Second || i < 1 || (o.traced && i < 2); i++ {
		var rec *recorder
		if o.traced && i%2 == 1 {
			rec = newRecorder(w.spanCapacity())
		}
		*phase = fmt.Sprintf("round %d", i)
		// Every round starts from a collected heap, so that the garbage of
		// the previous stack is not collected on this round's clock.
		runtime.GC()
		r, err := w.round(rec)
		if err != nil {
			return nil, err
		}
		measured += r.wall
		if rec == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
		first := plain[0].stats.Deterministic()
		if got := r.stats.Deterministic(); got != first {
			return nil, fmt.Errorf("round %d is not a repeat of round 0:\n got  %+v\n want %+v", i, got, first)
		}
	}
	*phase = "reporting"

	res := &result{Correct: true}
	for _, r := range append(slices.Clone(plain), traced...) {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	var err error
	if !o.traced {
		res.Metrics, err = emit(endToEnd, endToEndValues(plain, stats.Quantile(setups, 0.5)))
		return res, err
	}
	values := layerValues(plain, traced)
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, traced[len(traced)-1].spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	res.Metrics, err = emit(perLayer, values)
	return res, err
}

// medianOver is the median over rounds of a per-round figure. Every
// timing is reported this way: a round that shared the machine with
// something else then moves the figure no more than one sample can.
func medianOver(rounds []*round, f func(*round) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return stats.Quantile(vals, 0.5)
}

func opsPerSecond(r *round) float64 { return float64(r.ops) / r.wall.Seconds() }

func endToEndValues(rounds []*round, setupS float64) map[string]float64 {
	s := rounds[0].stats
	return map[string]float64{
		"ops_per_s":        medianOver(rounds, opsPerSecond),
		"admit_p50_us":     medianOver(rounds, func(r *round) float64 { return r.lat[latAdmit].us(0.50) }),
		"admit_p99_us":     medianOver(rounds, func(r *round) float64 { return r.lat[latAdmit].us(0.99) }),
		"cpu_s_per_kop":    medianOver(rounds, func(r *round) float64 { return 1000 * r.cpu / float64(r.ops) }),
		"allocs_per_op":    medianOver(rounds, func(r *round) float64 { return float64(r.mallocs) / float64(r.ops) }),
		"energy_j_per_job": s.Energy / float64(s.Completed),
		"accept_pct":       100 * float64(s.Accepted) / float64(s.Submitted),
		"peak_rss_mb":      peakRSSMiB(),
		"setup_s":          setupS,
	}
}

// layerValues derives the per-layer metrics from the traced rounds:
// span-derived times pooled over all of them, counters and one-off
// timings from the last.
func layerValues(plain, traced []*round) map[string]float64 {
	last := traced[len(traced)-1]
	values := make(map[string]float64)
	for k, v := range last.layer {
		values[k] = v
	}
	var total tally
	lt := new(layerTimes)
	for _, r := range traced {
		total.merge(&r.tally)
		lt.merge(analyze(r.spans))
	}
	n := float64(len(traced))
	values["core.solve_count"] = float64(lt.solves) / n
	values["core.solve_p50_us"] = lt.solve.us(0.50)
	values["core.solve_p99_us"] = lt.solve.us(0.99)
	values["core.busy_s"] = lt.solve.seconds() / n
	values["core.infeasible_pct"] = 100 * ratio(float64(lt.infeasible), float64(lt.solves))
	values["schedule.validate_p50_us"] = lt.validate.us(0.50)
	values["exmem.solve_p50_us"] = lt.search.us(0.50)
	values["exmem.solve_p99_us"] = lt.search.us(0.99)
	values["anytime.steps"] = float64(lt.step.n) / n
	values["anytime.busy_s"] = lt.step.seconds() / n
	values["fleet.svc_p50_us"] = lt.fleetSvc.us(0.50)
	values["fleet.svc_self_p50_us"] = lt.fleetSelf.us(0.50)
	values["httpapi.node_hop_self_p50_us"] = lt.nodeHopSelf.us(0.50)
	values["httpapi.edge_hop_self_p50_us"] = lt.edgeHopSelf.us(0.50)
	values["router.self_p50_us"] = lt.rtrSelf.us(0.50)
	values["router.stats_fanout_p50_us"] = lt.statsFanout.us(0.50)
	for i, name := range [numLat]string{"submit", "advance", "cancel", "stats"} {
		values["client."+name+"_p50_us"] = total.lat[i].us(0.50)
		values["client."+name+"_p99_us"] = total.lat[i].us(0.99)
	}
	values["client.admit_samples"] = float64(total.lat[latAdmit].n)
	values["trace.overhead_pct"] = 100 * (1 - medianOver(traced, opsPerSecond)/medianOver(plain, opsPerSecond))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	values["proc.gc_cycles"] = float64(ms.NumGC)
	values["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	values["proc.heap_peak_mb"] = float64(ms.HeapSys) / (1 << 20)
	return values
}
