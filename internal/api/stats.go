package api

import (
	"reflect"
	"time"
)

// StatsResult aggregates service activity. Which fields are
// deterministic for a given per-device request order — what the
// cross-implementation equivalence tests compare — is declared per
// field: Counters marks the operational integers, and the three
// non-integer fields are documented below.
type StatsResult struct {
	// Devices is the number of devices covered, Shards the worker count
	// (0 when a single device is addressed).
	Devices int `json:"devices"`
	Shards  int `json:"shards,omitempty"`
	// Submitted counts all requests, Accepted and Rejected its split.
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	// Completed counts finished jobs, DeadlineMisses the violations.
	Completed      int `json:"completed"`
	DeadlineMisses int `json:"deadline_misses"`
	// Cancelled counts jobs aborted while active. With the others it
	// closes the lifecycle ledger: accepted = completed + cancelled +
	// currently active.
	Cancelled int `json:"cancelled"`
	// Energy is the total energy of all executed schedule fractions (J).
	// Deterministic; merged by sum.
	Energy float64 `json:"energy"`
	// Activations counts scheduler invocations, SchedulingTime their
	// cumulative wall time (serialised as nanoseconds; operational,
	// merged by sum).
	Activations    int           `json:"activations"`
	SchedulingTime time.Duration `json:"scheduling_time_ns"`
	// Cache* sum the schedule-cache counters across the fleet (zero
	// when caching is off). Per-device results omit them: device stats
	// come from the runtime manager, which does not see the cache.
	CacheHits      int `json:"cache_hits,omitempty"`
	CacheMisses    int `json:"cache_misses,omitempty"`
	CacheStale     int `json:"cache_stale,omitempty"`
	CacheEvictions int `json:"cache_evictions,omitempty"`
	CacheRepacks   int `json:"cache_repacks,omitempty"`
	// CacheSharedHits counts lookups served from the fleet-wide shared
	// cache tier after missing the device-local first level, and
	// CachePromotions the entries device caches promoted into that tier
	// (zero without a shared tier; fleet-wide results only).
	CacheSharedHits int `json:"cache_shared_hits,omitempty"`
	CachePromotions int `json:"cache_promotions,omitempty"`
	// ScheduleSwaps counts accepted anytime-refinement schedule swaps:
	// a background exact search beat the admitted schedule and the
	// replacement passed the manager's validation. Deterministic only
	// when refinement is driven deterministically (the test suites);
	// with background refinement workers it depends on interleaving.
	ScheduleSwaps int `json:"schedule_swaps,omitempty"`
	// Refine* mirror the anytime refinement pool's counters (fleet-wide
	// results only): exact searches run, the subset that beat their
	// incumbent, tasks skipped because the shared tier already held an
	// exact result, and offers dropped on a full refinement queue.
	RefineSearches int `json:"refine_searches,omitempty"`
	RefineImproved int `json:"refine_improved,omitempty"`
	RefineSkipped  int `json:"refine_skipped,omitempty"`
	RefineDropped  int `json:"refine_dropped,omitempty"`
	// MaxQueueDepth is the mailbox high-water mark.
	MaxQueueDepth int `json:"max_queue_depth,omitempty"`
	// CoalescedBatches counts multi-request batched activations and
	// CoalescedRequests the submits that rode in them. Explicit
	// SubmitBatch calls make them deterministic; worker-side
	// BatchWindow coalescing makes them opportunistic, like
	// Activations (fleet-wide results only).
	CoalescedBatches  int `json:"coalesced_batches,omitempty"`
	CoalescedRequests int `json:"coalesced_requests,omitempty"`
	// WatchSubscribers gauges the open watch subscriptions and
	// WatchDropped counts events discarded from slow subscribers'
	// buffers (fleet-wide results only).
	WatchSubscribers int `json:"watch_subscribers,omitempty"`
	WatchDropped     int `json:"watch_dropped,omitempty"`
	// QuotaBudgetRefusals and QuotaRateRefusals count requests the
	// transport refused for an exhausted request budget or an empty
	// token bucket. They are transport-level: the in-process fleet has
	// no quotas and always reports zero; the HTTP daemon adds its
	// tenants' refusals on fleet-wide results.
	QuotaBudgetRefusals int `json:"quota_budget_refusals,omitempty"`
	QuotaRateRefusals   int `json:"quota_rate_refusals,omitempty"`
	// ControlMode names the degradation controller's current mode
	// (Mode.String; empty without a controller — a merged result
	// reports the worst mode across its nodes; operational). Shed
	// counts admission requests rejected early with ErrOverloaded
	// before a scheduler activation was spent, and ControlTicks /
	// ControlModeChanges the controller's decision counters
	// (fleet-wide results only).
	ControlMode        string `json:"control_mode,omitempty"`
	Shed               int    `json:"shed,omitempty"`
	ControlTicks       int    `json:"control_ticks,omitempty"`
	ControlModeChanges int    `json:"control_mode_changes,omitempty"`
}

// CounterFlag is one property of a Counters row.
type CounterFlag uint8

const (
	// Gauge marks a level; other rows export as Prometheus counters.
	Gauge CounterFlag = 1 << iota
	// MergeMax merges by maximum; other rows merge by sum.
	MergeMax
	// Operational marks a value that depends on wall-clock time,
	// goroutine interleaving or the transport; Deterministic zeroes it.
	Operational
	// PerDevice adds device="N" samples to the /metrics family.
	PerDevice
	// Controlled emits the family only when the result reports a
	// ControlMode, so a controller-less scrape carries none of them.
	Controlled
)

// Counter declares one integer field of StatsResult: how /metrics
// exports it, how MergeStats folds it and whether Deterministic keeps
// it.
type Counter struct {
	// Name is the StatsResult field.
	Name string
	// Metric and Help name and describe the Prometheus family. An
	// empty Metric leaves the field out of the service families (the
	// HTTP layer exports the quota refusals by tenant instead).
	Metric, Help string
	Flags        CounterFlag
	index        int
}

// counter builds a Counters row, resolving the named field once.
func counter(name, metric, help string, flags CounterFlag) Counter {
	f, ok := reflect.TypeOf(StatsResult{}).FieldByName(name)
	if !ok || f.Type.Kind() != reflect.Int {
		panic("api: Counters row " + name + " names no int field of StatsResult")
	}
	return Counter{Name: name, Metric: metric, Help: help, Flags: flags, index: f.Index[0]}
}

// Is reports whether the row carries flag f.
func (c Counter) Is(f CounterFlag) bool { return c.Flags&f != 0 }

// Value reads the row's field from s.
func (c Counter) Value(s *StatsResult) int {
	return int(reflect.ValueOf(s).Elem().Field(c.index).Int())
}

// Counters has one row per integer field of StatsResult, in field
// order. Adding a counter means adding the field and its row; a test
// fails for a field without one. The coalescing counters stay
// deterministic: explicit batches, which the equivalence suites drive,
// decide them (no suite enables the opportunistic BatchWindow).
var Counters = []Counter{
	counter("Devices", "adaptrm_fleet_devices", "Devices in the fleet.", Gauge|MergeMax),
	counter("Shards", "adaptrm_fleet_shards", "Shard worker goroutines.", Gauge|Operational),
	counter("Submitted", "adaptrm_requests_submitted_total", "Admission requests received.", PerDevice),
	counter("Accepted", "adaptrm_requests_accepted_total", "Admission requests accepted.", PerDevice),
	counter("Rejected", "adaptrm_requests_rejected_total", "Admission requests rejected (no feasible schedule).", PerDevice),
	counter("Completed", "adaptrm_jobs_completed_total", "Jobs run to completion.", PerDevice),
	counter("DeadlineMisses", "adaptrm_jobs_deadline_misses_total", "Completed jobs that violated their deadline.", PerDevice),
	counter("Cancelled", "adaptrm_jobs_cancelled_total", "Jobs cancelled while active.", PerDevice),
	counter("Activations", "adaptrm_scheduler_activations_total", "Scheduler invocations (cache hits included).", PerDevice),
	counter("CacheHits", "adaptrm_cache_hits_total", "Schedule-cache hits.", 0),
	counter("CacheMisses", "adaptrm_cache_misses_total", "Schedule-cache misses.", 0),
	counter("CacheStale", "adaptrm_cache_stale_total", "Schedule-cache entries invalidated on reuse.", 0),
	counter("CacheEvictions", "adaptrm_cache_evictions_total", "Schedule-cache LRU evictions.", 0),
	counter("CacheRepacks", "adaptrm_cache_repacks_total", "Schedule-cache re-pack reuses.", 0),
	counter("CacheSharedHits", "adaptrm_cache_shared_hits_total", "Lookups served from the fleet-wide shared cache tier.", 0),
	counter("CachePromotions", "adaptrm_cache_promotions_total", "Entries promoted into the shared cache tier.", 0),
	counter("ScheduleSwaps", "adaptrm_schedule_swaps_total", "Accepted anytime-refinement schedule swaps.", PerDevice),
	counter("RefineSearches", "adaptrm_refine_searches_total", "Background exact refinement searches run.", Operational),
	counter("RefineImproved", "adaptrm_refine_improved_total", "Refinement searches that beat their incumbent.", Operational),
	counter("RefineSkipped", "adaptrm_refine_skipped_total", "Refinement tasks skipped (exact result already shared).", Operational),
	counter("RefineDropped", "adaptrm_refine_dropped_total", "Refinement offers dropped on a full queue.", Operational),
	counter("MaxQueueDepth", "adaptrm_queue_depth_max", "High-water mark of pending requests over all shard mailboxes.", Gauge|MergeMax|Operational),
	counter("CoalescedBatches", "adaptrm_coalesced_batches_total", "Multi-request batched activations.", 0),
	counter("CoalescedRequests", "adaptrm_coalesced_requests_total", "Submits decided inside a coalesced batch.", 0),
	counter("WatchSubscribers", "adaptrm_watch_subscribers", "Open watch subscriptions.", Gauge|Operational),
	counter("WatchDropped", "adaptrm_watch_dropped_total", "Events dropped from slow watch subscribers.", Operational),
	counter("QuotaBudgetRefusals", "", "", Operational),
	counter("QuotaRateRefusals", "", "", Operational),
	counter("Shed", "adaptrm_shed_total", "Admission requests shed early with an overloaded error.", Operational|Controlled),
	counter("ControlTicks", "adaptrm_control_ticks_total", "Degradation-controller decision ticks.", Operational|Controlled),
	counter("ControlModeChanges", "adaptrm_control_mode_changes_total", "Degradation-tier transitions (both directions).", Operational|Controlled),
}

// Deterministic strips the wall-clock, operational and transport-level
// fields — the Operational rows of Counters, SchedulingTime and
// ControlMode — leaving only the values that must be identical across
// transports, shard counts and goroutine interleavings for the same
// per-device request order.
func (s StatsResult) Deterministic() StatsResult {
	v := reflect.ValueOf(&s).Elem()
	for _, c := range Counters {
		if c.Is(Operational) {
			v.Field(c.index).SetInt(0)
		}
	}
	s.SchedulingTime = 0
	s.ControlMode = ""
	return s
}

// MergeStats folds per-node results into one fleet-wide view, in
// order: each Counters row by its rule, Energy and SchedulingTime by
// sum, and ControlMode as the worst mode over the nodes that report
// one, so a probe acting on the merged view sees a single shedding
// node. Every node of a routed deployment hosts the full device space
// (the placement partitions traffic, not configuration), so Devices
// merges by maximum; a device's counters are zero on every node but
// its owner, so sums reconstruct exactly what a single fleet reports.
func MergeStats(in []StatsResult) StatsResult {
	var out StatsResult
	ov := reflect.ValueOf(&out).Elem()
	for i := range in {
		s := &in[i]
		sv := reflect.ValueOf(s).Elem()
		for _, c := range Counters {
			o, v := ov.Field(c.index), sv.Field(c.index).Int()
			if !c.Is(MergeMax) {
				o.SetInt(o.Int() + v)
			} else if v > o.Int() {
				o.SetInt(v)
			}
		}
		out.Energy += s.Energy
		out.SchedulingTime += s.SchedulingTime
		if m, ok := modeOf(s.ControlMode); ok {
			if cur, set := modeOf(out.ControlMode); !set || m > cur {
				out.ControlMode = m.String()
			}
		}
	}
	return out
}
