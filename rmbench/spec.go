package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricSpec declares one metric. The tables below are the source of
// BENCHMARK.json (`rmbench -spec` prints it) and of what a run emits, so
// the two cannot drift: a run emits every declared name once and refuses
// to emit an undeclared one.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before it counts as a regression. Each is at least three
	// times the run-to-run spread (over seeds) recorded in README.md.
	Bound float64
}

// runSeconds is how long one driver run measures.
const runSeconds = 8

var endToEnd = []metricSpec{
	{"ops_per_s", "ops/s", "higher", 0.15},
	{"admit_p50_us", "us", "lower", 0.15},
	{"admit_p99_us", "us", "lower", 0.25},
	{"cpu_s_per_kop", "s/kop", "lower", 0.15},
	{"allocs_per_op", "allocs/op", "lower", 0.05},
	{"energy_j_per_job", "J/job", "lower", 0.03},
	{"accept_pct", "%", "higher", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricSpec{
	{Name: "core.solve_count", Unit: "count", Better: "lower"},
	{Name: "core.solve_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.solve_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.infeasible_pct", Unit: "%", Better: "lower"},
	{Name: "core.rel_energy_vs_exact", Unit: "ratio", Better: "lower"},
	{Name: "lagrange.rel_energy_vs_exact", Unit: "ratio", Better: "lower"},
	{Name: "lagrange.solve_p50_us", Unit: "us", Better: "lower"},
	{Name: "lagrange.sched_rate_pct", Unit: "%", Better: "higher"},
	{Name: "exmem.sched_rate_pct", Unit: "%", Better: "higher"},
	{Name: "schedule.validate_p50_us", Unit: "us", Better: "lower"},
	{Name: "exmem.solve_p50_us", Unit: "us", Better: "lower"},
	{Name: "exmem.solve_p99_us", Unit: "us", Better: "lower"},
	{Name: "anytime.steps", Unit: "count", Better: "lower"},
	{Name: "anytime.busy_s", Unit: "s", Better: "lower"},
	{Name: "anytime.searches", Unit: "count", Better: "lower"},
	{Name: "anytime.skipped_pct", Unit: "%", Better: "higher"},
	{Name: "anytime.useful_pct", Unit: "%", Better: "higher"},
	{Name: "anytime.no_improvement", Unit: "count", Better: "lower"},
	{Name: "anytime.budget_exhausted", Unit: "count", Better: "lower"},
	{Name: "anytime.energy_vs_cold_mdf", Unit: "ratio", Better: "lower"},
	{Name: "rm.swaps", Unit: "count", Better: "higher"},
	{Name: "rm.activations_per_submit", Unit: "ratio", Better: "lower"},
	{Name: "schedcache.l1_hit_pct", Unit: "%", Better: "higher"},
	{Name: "schedcache.shared_hit_pct", Unit: "%", Better: "higher"},
	{Name: "schedcache.repack_pct", Unit: "%", Better: "lower"},
	{Name: "schedcache.stale_pct", Unit: "%", Better: "lower"},
	{Name: "schedcache.exact_entries", Unit: "count", Better: "higher"},
	{Name: "schedcache.warm_load_s", Unit: "s", Better: "lower"},
	{Name: "fleet.svc_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.svc_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "fleet.close_drain_s", Unit: "s", Better: "lower"},
	{Name: "httpapi.node_hop_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.edge_hop_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.stats_fanout_p50_us", Unit: "us", Better: "lower"},
	{Name: "durable.appended_events", Unit: "count", Better: "lower"},
	{Name: "durable.fsyncs", Unit: "count", Better: "lower"},
	{Name: "durable.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "durable.close_flush_s", Unit: "s", Better: "lower"},
	{Name: "durable.open_s", Unit: "s", Better: "lower"},
	{Name: "durable.recover_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.submit_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.submit_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.advance_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.advance_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.cancel_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.cancel_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.stats_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.stats_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.admit_samples", Unit: "count", Better: "higher"},
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit turns measured values into the declared metrics: every name in
// specs once, absent layers reading 0, nothing undeclared, all finite.
func emit(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// benchmarkJSON renders the tables in BENCHMARK.json's shape.
func benchmarkJSON() ([]byte, error) {
	type workloadDecl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eDecl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []e2eDecl      `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{Command: []string{"sh", "rmbench/run.sh"}, Paths: []string{"rmbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDecl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eDecl{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDecl{m.Name, m.Unit, m.Better})
	}
	return json.MarshalIndent(doc, "", "  ")
}
