package fleet

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/rm"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/workload"
)

// anytimeDeviceConfig builds one device on the MDF-gap workload (the
// fleet-level twin of the exmem suite's mdfGapCase): admitting blocker
// then switcher leaves MMKP-MDF on a 14 J plan while the exact optimum
// is 13.4 J, so a refinement pass has something real to find.
func anytimeDeviceConfig(t *testing.T) DeviceConfig {
	t.Helper()
	blocker := &opset.Table{App: "blocker", Points: []opset.Point{
		{Alloc: platform.Alloc{1, 2}, Time: 4, Energy: 5},
	}}
	blocker.SortByEnergy()
	switcher := &opset.Table{App: "switcher", Points: []opset.Point{
		{Alloc: platform.Alloc{1, 0}, Time: 20, Energy: 2},
		{Alloc: platform.Alloc{1, 0}, Time: 8, Energy: 9},
		{Alloc: platform.Alloc{2, 2}, Time: 5, Energy: 10},
	}}
	switcher.SortByEnergy()
	lib := opset.NewLibrary()
	if err := lib.Add(blocker); err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(switcher); err != nil {
		t.Fatal(err)
	}
	return DeviceConfig{Platform: platform.Motivational2L2B(), Library: lib, Scheduler: core.New()}
}

// admitGapPair admits the two gap-case jobs on device 0 and returns the
// event types observed so far is left to the caller's watch.
func admitGapPair(t *testing.T, f *Fleet) {
	t.Helper()
	svc := f.Service()
	for _, req := range []api.SubmitRequest{
		{Device: 0, At: 0, App: "blocker", Deadline: 4},
		{Device: 0, At: 0, App: "switcher", Deadline: 8.5},
	} {
		if r, err := svc.Submit(ctxBG, req); err != nil || !r.Accepted {
			t.Fatalf("submit %s: %+v err=%v", req.App, r, err)
		}
	}
}

// TestFleetAnytimeSwapDeterministic drives the refinement pool through
// the explicit TryStep drive (RefineWorkers < 0): the background search
// beats the MDF incumbent, the swap flows through the shard mailbox,
// and the run is reproducible event-for-event across repetitions.
func TestFleetAnytimeSwapDeterministic(t *testing.T) {
	type outcome struct {
		Energy  float64
		Swapped int
		Stats   Stats
		Events  []api.EventType
	}
	run := func() outcome {
		shared := schedcache.NewShared()
		f, err := New([]DeviceConfig{anytimeDeviceConfig(t)},
			Options{Cache: true, SharedCache: shared, Refine: true, RefineWorkers: -1})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := f.Service().Watch(ctxBG, api.WatchRequest{Buffer: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		evs, wait := collectWatch(ch)
		admitGapPair(t, f)
		steps := 0
		for f.Refiner().TryStep() {
			steps++
		}
		if steps != 2 {
			t.Fatalf("refinement steps = %d, want 2 (one offer per admission)", steps)
		}
		// A synchronous op on the same device orders the capture behind
		// the fire-and-forget swap post (same shard, FIFO mailbox).
		if _, err := f.Service().Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 0}); err != nil {
			t.Fatal(err)
		}
		ds, err := f.DeviceStats(0)
		if err != nil {
			t.Fatal(err)
		}
		if ss := shared.Stats(); ss.ExactEntries < 1 {
			t.Errorf("refined schedule not promoted to the shared tier: %+v", ss)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		types := make([]api.EventType, len(*evs))
		for i, ev := range *evs {
			types[i] = ev.Type
			if ev.Type == api.EventScheduleSwapped && ev.Payload == "" {
				t.Error("schedule_swapped event without payload")
			}
		}
		s := f.Stats()
		return outcome{Energy: s.Energy, Swapped: ds.Swapped, Stats: deterministic(s), Events: types}
	}

	first := run()
	if first.Swapped != 1 {
		t.Fatalf("Swapped = %d, want 1", first.Swapped)
	}
	if math.Abs(first.Energy-13.4) > 1e-6 {
		t.Errorf("energy = %v, want 13.4 (exact optimum; MDF alone gives 14)", first.Energy)
	}
	if first.Stats.RefineSearches != 2 || first.Stats.RefineImproved != 1 || first.Stats.Swaps != 1 {
		t.Errorf("refine counters: %+v", first.Stats)
	}
	swaps := 0
	for _, ty := range first.Events {
		if ty == api.EventScheduleSwapped {
			swaps++
		}
	}
	if swaps != 1 {
		t.Errorf("watch log has %d schedule_swapped events, want 1", swaps)
	}
	for rep := 0; rep < 2; rep++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d diverged:\n got %+v\nwant %+v", rep+2, again, first)
		}
	}
}

// TestFleetAnytimeWarmServesExact is the tentpole property in
// miniature: a shared tier warmed by one fleet's refinements (round-
// tripped through the Save/Load wire format, as -cache-warm does)
// serves the exact schedule at admission time on a fresh fleet — exact
// quality at lookup latency, no search and no swap needed — and the
// refiner's probe skips the already-solved problem.
func TestFleetAnytimeWarmServesExact(t *testing.T) {
	warmed := schedcache.NewShared()
	f1, err := New([]DeviceConfig{anytimeDeviceConfig(t)},
		Options{Cache: true, SharedCache: warmed, Refine: true, RefineWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	admitGapPair(t, f1)
	for f1.Refiner().TryStep() {
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := warmed.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := schedcache.NewShared()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if ls := loaded.Stats(); ls.ExactEntries < 1 || ls.Entries != warmed.Len() {
		t.Fatalf("warm round-trip lost entries: %+v vs %d", ls, warmed.Len())
	}

	f2, err := New([]DeviceConfig{anytimeDeviceConfig(t)},
		Options{Cache: true, SharedCache: loaded, Refine: true, RefineWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	admitGapPair(t, f2)
	for f2.Refiner().TryStep() {
	}
	if _, err := f2.Service().Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 0}); err != nil {
		t.Fatal(err)
	}
	ds, err := f2.DeviceStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	s := f2.Stats()
	if ds.Swapped != 0 {
		t.Errorf("warm fleet swapped %d times; the admission should already be exact", ds.Swapped)
	}
	if math.Abs(s.Energy-13.4) > 1e-6 {
		t.Errorf("warm-fleet energy = %v, want the exact 13.4 at admission time", s.Energy)
	}
	if s.CacheSharedHits < 1 {
		t.Errorf("no shared-tier hits on the warm fleet: %+v", s)
	}
	if s.RefineSkipped < 1 {
		t.Errorf("refiner probe did not skip the already-exact problem: %+v", s)
	}
}

// TestFleetRefinePassiveEquivalence pins the "refinement off ≡ today"
// bar: a fleet built with Refine enabled but never stepped
// (RefineWorkers < 0) behaves byte-identically to one without the
// feature — same per-device states, same event logs, same deterministic
// aggregate statistics.
func TestFleetRefinePassiveEquivalence(t *testing.T) {
	const n, seed, ops = 3, 77, 120
	run := func(opt Options) ([]rm.Snapshot, [][]api.Event, Stats) {
		f := newTestFleet(t, n, opt)
		ch, err := f.Service().Watch(ctxBG, api.WatchRequest{Buffer: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		evs, wait := collectWatch(ch)
		now := make([]float64, n)
		driveRecoveryTraffic(t, f, n, seed, ops, now, false)
		states := make([]rm.Snapshot, n)
		for d := 0; d < n; d++ {
			states[d] = captureDevice(t, f, d, false)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		logs := perDeviceLogs(*evs, n)
		for d := 0; d < n; d++ {
			cut := len(logs[d])
			for cut > 0 && logs[d][cut-1].Seq > states[d].EventSeq {
				cut--
			}
			logs[d] = logs[d][:cut]
		}
		st := deterministic(f.Stats())
		// The refine counters are operational by contract; everything
		// else must match exactly.
		st.RefineSearches, st.RefineImproved, st.RefineSkipped, st.RefineDropped = 0, 0, 0, 0
		return states, logs, st
	}
	baseStates, baseLogs, baseStats := run(Options{Shards: 2, Cache: true})
	pasStates, pasLogs, pasStats := run(Options{Shards: 2, Cache: true, Refine: true, RefineWorkers: -1})
	if !reflect.DeepEqual(pasStates, baseStates) {
		t.Errorf("device states diverge with a passive refiner:\n got %+v\nwant %+v", pasStates, baseStates)
	}
	if !reflect.DeepEqual(pasLogs, baseLogs) {
		t.Error("event logs diverge with a passive refiner")
	}
	if !reflect.DeepEqual(pasStats, baseStats) {
		t.Errorf("stats diverge with a passive refiner:\n got %+v\nwant %+v", pasStats, baseStats)
	}

	// A shared tier changes which cache level serves a lookup — the
	// cache counters legitimately move between levels — but never the
	// scheduling outcome: per-device states and event logs stay
	// byte-identical.
	shStates, shLogs, _ := run(Options{Shards: 2, Cache: true, SharedCache: schedcache.NewShared(),
		Refine: true, RefineWorkers: -1})
	if !reflect.DeepEqual(shStates, baseStates) {
		t.Errorf("device states diverge with a shared tier:\n got %+v\nwant %+v", shStates, baseStates)
	}
	if !reflect.DeepEqual(shLogs, baseLogs) {
		t.Error("event logs diverge with a shared tier")
	}
}

// TestRecoverSwapEquivalence extends the kill-and-recover oracle to
// logs containing schedule_swapped events: recovery replays the logged
// schedule verbatim (no background search) and lands on the identical
// post-swap state.
func TestRecoverSwapEquivalence(t *testing.T) {
	f, err := New([]DeviceConfig{anytimeDeviceConfig(t)},
		Options{Cache: true, Refine: true, RefineWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	svc := f.Service()
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)
	admitGapPair(t, f)
	for f.Refiner().TryStep() {
	}
	if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 0}); err != nil {
		t.Fatal(err)
	}
	// Execute into the swapped schedule so the recovered timeline must
	// reproduce post-swap segments, not just the plan.
	if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 5}); err != nil {
		t.Fatal(err)
	}
	want := captureDevice(t, f, 0, false)
	if want.Swapped != 1 {
		t.Fatalf("fixture produced no swap: %+v", want)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	log := perDeviceLogs(*evs, 1)[0]
	cut := len(log)
	for cut > 0 && log[cut-1].Seq > want.EventSeq {
		cut--
	}
	log = log[:cut]
	hasSwap := false
	for _, ev := range log {
		if ev.Type == api.EventScheduleSwapped {
			hasSwap = true
		}
	}
	if !hasSwap {
		t.Fatal("log carries no schedule_swapped event")
	}

	f2, results, err := Recover([]DeviceConfig{anytimeDeviceConfig(t)}, Options{},
		map[int]DeviceRecovery{0: {Events: log}})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := captureDevice(t, f2, 0, false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs:\n got %+v\nwant %+v", got, want)
	}
	if res := results[0]; res.AppliedSeq != want.EventSeq || res.Dropped != 0 {
		t.Errorf("recovery result %+v, want applied %d dropped 0", res, want.EventSeq)
	}
}

// TestFleetAnytimeRemembersSearches replays one seeded trace twice. The
// first pass meets every shape cold and searches it; its tier, saved and
// loaded back as a restarted daemon would, carries a record of every
// search that found nothing, so the second pass repeats almost none of
// them — and still lands on the same energy, because what it skips had
// nothing to give. The drive is sequential, so no swap offer goes stale:
// an improvement that did not become a swap would be a schedule the
// manager's schedule.Validate refused.
func TestFleetAnytimeRemembersSearches(t *testing.T) {
	const devices = 4
	dc := anytimeDeviceConfig(t)
	trace, err := workload.FleetTrace(dc.Library, workload.FleetTraceParams{
		Devices: devices, Rate: 0.2, Horizon: 2000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := func(tier *schedcache.Shared) Stats {
		devs := make([]DeviceConfig, devices)
		for i := range devs {
			devs[i] = anytimeDeviceConfig(t)
		}
		// A budget small enough that some searches exhaust it: both kinds
		// of record are in play.
		f, err := New(devs, Options{Shards: 2, Cache: true, SharedCache: tier,
			Refine: true, RefineWorkers: -1, RefineBudget: 40})
		if err != nil {
			t.Fatal(err)
		}
		svc := f.Service()
		for _, r := range trace {
			_, err := svc.Submit(ctxBG, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
			if err != nil && !errors.Is(err, api.ErrInfeasible) {
				t.Fatal(err)
			}
			for f.Refiner().TryStep() {
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return f.Stats()
	}

	cold := schedcache.NewShared()
	first := pass(cold)
	cs := cold.Stats()
	if cs.SearchedToCompletion == 0 || cs.SearchedToBudget == 0 {
		t.Fatalf("first pass left no records of both kinds: %+v", cs)
	}
	var file bytes.Buffer
	if err := cold.Save(&file); err != nil {
		t.Fatal(err)
	}
	warm := schedcache.NewShared()
	if err := warm.Load(&file); err != nil {
		t.Fatal(err)
	}
	if ws := warm.Stats(); ws.SearchedToCompletion != cs.SearchedToCompletion || ws.SearchedToBudget != cs.SearchedToBudget {
		t.Fatalf("records lost in the warm file: saved %+v, loaded %+v", cs, ws)
	}
	second := pass(warm)

	if first.RefineSearches < 100 {
		t.Fatalf("first pass ran only %d searches: trace too small to show anything", first.RefineSearches)
	}
	if second.RefineSearches*10 > first.RefineSearches {
		t.Errorf("second pass ran %d searches against the first pass's %d, want at most a tenth",
			second.RefineSearches, first.RefineSearches)
	}
	if rel := math.Abs(second.Energy-first.Energy) / first.Energy; rel > 0.005 {
		t.Errorf("second pass energy %v differs from the first pass's %v by %.2f%%, want within 0.5%%",
			second.Energy, first.Energy, 100*rel)
	}
	for name, s := range map[string]Stats{"first": first, "second": second} {
		if s.Swaps != s.RefineImproved {
			t.Errorf("%s pass: %d improvements but %d swaps: the manager refused a refined schedule",
				name, s.RefineImproved, s.Swaps)
		}
	}
	if first.Swaps == 0 {
		t.Error("first pass swapped nothing: the trace exercises no refinement")
	}
	if second.Accepted != first.Accepted || second.DeadlineMisses != 0 {
		t.Errorf("second pass admitted %d (first %d) with %d deadline misses", second.Accepted, first.Accepted, second.DeadlineMisses)
	}
}
