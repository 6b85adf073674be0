package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testScale shrinks every workload to a fraction of a second while
// leaving each one enough requests to exercise all of its op kinds.
const testScale = 0.05

func measure1(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	spec, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: workload, traced: traced, env: env{seed: seed, scale: testScale, tmp: t.TempDir()}}
	if traced {
		o.traceOut = filepath.Join(o.env.tmp, "spans.jsonl")
	}
	phase := ""
	res, err := measureWorkload(spec, o, &phase)
	if err != nil {
		t.Fatalf("%s, seed %d, traced %v: %s: %v", workload, seed, traced, phase, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	if traced {
		if info, err := os.Stat(o.traceOut); err != nil || info.Size() == 0 {
			t.Errorf("%s: no spans written to -trace-out: %v", workload, err)
		}
	}
	return res
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// runs emit from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw := readBenchmarkJSON(t)
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), want) {
		t.Errorf("BENCHMARK.json differs from `rmbench -spec`; regenerate it")
	}
}

// Layers that only one workload runs, by metric prefix.
var exclusive = map[string]string{"anytime.": "refine-warm", "httpapi.": "socket-2hop", "router.": "socket-2hop", "durable.": "socket-2hop", "lagrange.": "suite-static"}

// Per-layer metrics that must read above zero on a workload: the layers
// it was built to stress.
var stressed = map[string][]string{
	"suite-static": {"core.solve_count", "schedule.validate_p50_us", "core.rel_energy_vs_exact", "lagrange.solve_p50_us", "exmem.sched_rate_pct"},
	"fleet-heavy":  {"core.solve_count", "fleet.svc_p50_us", "rm.activations_per_submit", "client.cancel_p50_us"},
	"fleet-burst":  {"core.solve_count", "fleet.svc_p50_us", "rm.activations_per_submit", "client.advance_p50_us"},
	"socket-2hop": {"httpapi.node_hop_self_p50_us", "httpapi.edge_hop_self_p50_us", "router.self_p50_us", "router.stats_fanout_p50_us",
		"durable.appended_events", "durable.recover_events_per_s", "client.stats_p50_us"},
	"refine-warm": {"anytime.steps", "anytime.searches", "anytime.busy_s", "exmem.solve_p50_us", "schedcache.shared_hit_pct", "schedcache.warm_load_s"},
}

// seedDecides reports whether a per-layer metric is a function of the
// seed alone, not of the clock or the Go scheduler.
func seedDecides(m metricSpec) bool {
	switch m.Name {
	case "proc.gc_cycles", "durable.fsyncs", "fleet.max_queue_depth", "client.admit_samples", "trace.overhead_pct":
		return false
	}
	return m.Unit == "count" || m.Unit == "%" || m.Unit == "ratio"
}

// TestWorkloads runs every workload of BENCHMARK.json, small, in both
// modes, and holds the output against the declaration: every declared
// name once, with its unit and a finite value, and nothing else. The
// traced run must attribute work to the layers the workload stresses and
// to no layer it bypasses. A repeat of the seed must reproduce the
// figures the clock has no part in bit for bit, and a second seed must
// change the inputs and still pass every check.
func TestWorkloads(t *testing.T) {
	var d declared
	if err := json.Unmarshal(readBenchmarkJSON(t), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, rmbench has %d", len(d.Workloads), len(workloads))
	}
	check := func(t *testing.T, res *result, want []struct{ Name, Unit string }, positive bool) {
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s not emitted", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s = %v", m.Name, got.Value)
			case positive && got.Value <= 0:
				t.Errorf("end-to-end metric %s = %v, want positive", m.Name, got.Value)
			}
		}
	}
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := measure1(t, w.Name, 7, false), measure1(t, w.Name, 7, false)
			check(t, a, d.EndToEnd, true)
			for _, name := range []string{"energy_j_per_job", "accept_pct"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s = %v, then %v for the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			other := measure1(t, w.Name, 8, false)
			if other.Metrics["energy_j_per_job"] == a.Metrics["energy_j_per_job"] {
				t.Errorf("seeds 7 and 8 gave the same energy %v: the seed does not reach the inputs", a.Metrics["energy_j_per_job"].Value)
			}

			la, lb := measure1(t, w.Name, 7, true), measure1(t, w.Name, 7, true)
			check(t, la, d.PerLayer, false)
			for _, m := range perLayer {
				if seedDecides(m) && la.Metrics[m.Name] != lb.Metrics[m.Name] {
					t.Errorf("%s = %v, then %v for the same seed", m.Name, la.Metrics[m.Name].Value, lb.Metrics[m.Name].Value)
				}
				for prefix, only := range exclusive {
					if strings.HasPrefix(m.Name, prefix) && only != w.Name && la.Metrics[m.Name].Value != 0 {
						t.Errorf("%s = %v, but only %s runs that layer", m.Name, la.Metrics[m.Name].Value, only)
					}
				}
			}
			for _, name := range stressed[w.Name] {
				if la.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want positive", name, la.Metrics[name].Value)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5})
	if q1 != 5 || q2 != 5 || q3 != 5 {
		t.Errorf("quartiles of one value = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "admit_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 130, 80, 100, 120}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within the bound", lower, steady, []float64{105, 106, 104, 105, 107}, "ok"},
		{"slower beyond the bound", lower, steady, []float64{120, 121, 119, 120, 122}, "worse"},
		{"faster is not worse", lower, steady, []float64{50, 51, 49, 50, 52}, "ok"},
		{"throughput fell", higher, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 122}, "ok"},
		{"spread hides a small change", lower, noisy, []float64{105, 135, 85, 105, 125}, "unresolved"},
		{"every run better settles a noisy metric", lower, noisy, []float64{50, 60, 40, 55, 45}, "ok"},
		{"every run worse settles a noisy metric", lower, noisy, []float64{200, 260, 160, 200, 240}, "worse"},
	} {
		if got, _, _, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint, opsPerS float64) string {
		f := resultFile{Fingerprint: fp}
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, runResult{Workload: "fleet-heavy", result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"ops_per_s": {Value: opsPerS + float64(i), Unit: "ops/s"}}}})
		}
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		// A result file is a whole run's output: tables, then the object.
		if err := os.WriteFile(path, append([]byte("workload fleet-heavy\n  ops_per_s 1\n"), append(line, '\n')...), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostFingerprint(1, 1, 8)
	base := write("a.json", host, 1000)

	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", host, 1001)); err != nil {
		t.Errorf("equal runs: %v\n%s", err, &out)
	}
	if !strings.Contains(out.String(), "fleet-heavy") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no verdict row in:\n%s", &out)
	}
	out.Reset()
	if err := compareFiles(&out, base, write("slow.json", host, 500)); !errors.Is(err, errWorse) {
		t.Errorf("halved throughput: err = %v, want errWorse\n%s", err, &out)
	}
	other := host
	other.Seed++
	if err := compareFiles(&out, base, write("seed.json", other, 1000)); err == nil || errors.Is(err, errWorse) {
		t.Errorf("different seeds: err = %v, want a refusal to compare", err)
	}
}
