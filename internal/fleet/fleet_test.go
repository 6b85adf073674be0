package fleet

import (
	"errors"
	"sync"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/motiv"
	"adaptrm/internal/workload"
)

// newTestFleet builds a fleet of n motivational devices, one scheduler
// instance per device.
func newTestFleet(t *testing.T, n int, opt Options) *Fleet {
	t.Helper()
	devs := make([]DeviceConfig, n)
	for i := range devs {
		devs[i] = DeviceConfig{
			Platform:  motiv.Platform(),
			Library:   motiv.Library(),
			Scheduler: core.New(),
		}
	}
	f, err := New(devs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// deterministic strips the wall-clock fields so per-seed runs compare
// equal.
func deterministic(s Stats) Stats {
	s.SchedulingTime = 0
	s.MaxQueueDepth = 0
	s.Shards = 0
	return s
}

func TestFleetValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New([]DeviceConfig{{Platform: motiv.Platform(), Library: motiv.Library()}}, Options{}); err == nil {
		t.Error("nil scheduler accepted")
	}
	f := newTestFleet(t, 2, Options{})
	if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: 5, At: 0, App: "lambda1", Deadline: 9}); err == nil {
		t.Error("out-of-range device accepted")
	}
	if _, err := f.Service().Advance(ctxBG, api.AdvanceRequest{Device: -1, To: 3}); err == nil {
		t.Error("negative device accepted")
	}
	if _, err := f.DeviceStats(7); err == nil {
		t.Error("out-of-range DeviceStats accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err == nil {
		t.Error("submit after close accepted")
	}
	if err := f.Close(); err == nil {
		t.Error("double close accepted")
	}
}

// TestFleetMatchesSequentialManager replays the motivational scenario on
// every device and checks each device behaves exactly like the
// standalone manager: both jobs admitted, energy 14.63 J, no misses.
func TestFleetMatchesSequentialManager(t *testing.T) {
	const n = 5
	f := newTestFleet(t, n, Options{Shards: 2, MailboxSize: 4})
	for d := 0; d < n; d++ {
		if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: d, At: 0, App: "lambda1", Deadline: 9}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: d, At: 1, App: "lambda2", Deadline: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Submitted != 2*n || s.Accepted != 2*n || s.Rejected != 0 {
		t.Fatalf("admission: %+v", s)
	}
	if s.Completed != 2*n || s.DeadlineMisses != 0 {
		t.Fatalf("completions: %+v", s)
	}
	wantE := 14.63 * n
	if s.Energy < wantE-0.1*n || s.Energy > wantE+0.1*n {
		t.Fatalf("energy = %v, want ≈%v", s.Energy, wantE)
	}
	if got := s.AcceptRate(); got != 1 {
		t.Fatalf("accept rate = %v", got)
	}
	for d := 0; d < n; d++ {
		ds, err := f.DeviceStats(d)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Accepted != 2 || ds.Completed != 2 {
			t.Fatalf("device %d: %+v", d, ds)
		}
	}
}

func TestFleetAdvanceMovesClock(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Service().Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	now, err := f.DeviceNow(0)
	if err != nil {
		t.Fatal(err)
	}
	if now < 3 {
		t.Fatalf("device clock = %v, want ≥ 3", now)
	}
}

// runFleetTrace replays a generated multi-tenant trace from g goroutines
// (each owning a disjoint set of devices, preserving per-device order)
// and returns the final deterministic stats.
func runFleetTrace(t *testing.T, devices, goroutines int, opt Options, seed int64) Stats {
	t.Helper()
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.25, RateSpread: 0.6, Horizon: 60, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := workload.SplitByDevice(trace, devices)
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, devices, opt)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for d := g; d < devices; d += goroutines {
				for _, r := range streams[d] {
					if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline}); err != nil && !errors.Is(err, api.ErrInfeasible) {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	// Exercise concurrent stats snapshots while traffic is flowing.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = f.Stats()
		}
	}()
	wg.Wait()
	<-done
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Stats()
}

// TestFleetConcurrentDeterministicStats is the -race workhorse: many
// goroutines submit to many devices through a small shard pool, and the
// deterministic aggregate statistics must be identical across repeats,
// shard counts, goroutine counts, and cache on/off (the cache only reuses
// validated schedules produced by the same per-device solver stream).
func TestFleetConcurrentDeterministicStats(t *testing.T) {
	const devices = 8
	base := runFleetTrace(t, devices, 4, Options{Shards: 3, MailboxSize: 8}, 42)
	if base.Submitted == 0 || base.Accepted == 0 {
		t.Fatalf("trivial run: %+v", base)
	}
	if base.Completed != base.Accepted {
		t.Fatalf("close did not drain: %+v", base)
	}
	variants := []struct {
		name       string
		goroutines int
		opt        Options
	}{
		{"repeat", 4, Options{Shards: 3, MailboxSize: 8}},
		{"one-shard", 1, Options{Shards: 1, MailboxSize: 8}},
		{"many-shards", 8, Options{Shards: 8, MailboxSize: 2}},
	}
	for _, v := range variants {
		got := runFleetTrace(t, devices, v.goroutines, v.opt, 42)
		if deterministic(got) != deterministic(base) {
			t.Errorf("%s: stats diverged:\n got %+v\nwant %+v",
				v.name, deterministic(got), deterministic(base))
		}
	}
	// A different seed must actually change the workload.
	other := runFleetTrace(t, devices, 4, Options{Shards: 3, MailboxSize: 8}, 43)
	if deterministic(other) == deterministic(base) {
		t.Error("different seeds produced identical stats")
	}
}

// lowUtilOptions is a fleet configuration for a lightly loaded fleet,
// the regime where workload shapes repeat and the cache earns hits.
func lowUtilTrace(t *testing.T, devices int, seed int64) [][]workload.FleetRequest {
	t.Helper()
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.05, RateSpread: 0.6, Horizon: 400, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := workload.SplitByDevice(trace, devices)
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// runStreams replays pre-split per-device streams from g goroutines.
func runStreams(t *testing.T, streams [][]workload.FleetRequest, goroutines int, opt Options) Stats {
	t.Helper()
	devices := len(streams)
	f := newTestFleet(t, devices, opt)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for d := g; d < devices; d += goroutines {
				for _, r := range streams[d] {
					if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline}); err != nil && !errors.Is(err, api.ErrInfeasible) {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Stats()
}

// TestFleetCacheDeterministicAndEffective checks that the schedule cache
// serves hits on a lightly loaded fleet, that cached runs stay
// deterministic per seed across repeats and shard counts, and that the
// energy cost of reusing bucketed-neighbour decisions stays small. Exact
// equality with the uncached run is not expected: a hit may inherit the
// point choice of a problem up to one bucket away.
func TestFleetCacheDeterministicAndEffective(t *testing.T) {
	const devices = 6
	streams := lowUtilTrace(t, devices, 7)
	cacheOpt := Options{Shards: 2, Cache: true}
	plain := runStreams(t, streams, 3, Options{Shards: 2})
	cached := runStreams(t, streams, 3, cacheOpt)
	if cached.CacheHits == 0 {
		t.Error("cache served no hits on a repetitive low-utilisation trace")
	}
	if cached.DeadlineMisses != 0 {
		t.Errorf("cache caused %d deadline misses", cached.DeadlineMisses)
	}
	if cached.Completed != cached.Accepted {
		t.Errorf("close did not drain: %+v", cached)
	}
	// Reuse must not change admission much nor energy beyond the bucket
	// approximation (validated schedules only).
	if cached.Accepted < plain.Accepted-2 || cached.Accepted > plain.Accepted+2 {
		t.Errorf("admission diverged: plain %d, cached %d", plain.Accepted, cached.Accepted)
	}
	if cached.Energy < 0.9*plain.Energy || cached.Energy > 1.1*plain.Energy {
		t.Errorf("energy diverged: plain %v, cached %v", plain.Energy, cached.Energy)
	}
	// Determinism: repeats and different shard/goroutine splits agree.
	again := runStreams(t, streams, 1, Options{Shards: 5, MailboxSize: 2, Cache: true})
	if deterministic(again) != deterministic(cached) {
		t.Errorf("cached run not deterministic:\n got %+v\nwant %+v",
			deterministic(again), deterministic(cached))
	}
}

// TestFleetSubmitCloseRace hammers Submit from many goroutines while
// Close runs concurrently: submissions must either land or return the
// "fleet: closed" error — never panic on a closed mailbox.
func TestFleetSubmitCloseRace(t *testing.T) {
	for round := 0; round < 10; round++ {
		f := newTestFleet(t, 4, Options{Shards: 2, MailboxSize: 1})
		var wg sync.WaitGroup
		wg.Add(4)
		for g := 0; g < 4; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: g, At: float64(i), App: "lambda1", Deadline: float64(i) + 9}); err != nil && !errors.Is(err, api.ErrInfeasible) {
						return // fleet closed underneath us — expected
					}
				}
			}(g)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		s := f.Stats()
		if s.Completed != s.Accepted {
			t.Fatalf("round %d: close did not drain: %+v", round, s)
		}
	}
}
