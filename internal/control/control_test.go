package control

import (
	"testing"
	"time"

	"adaptrm/internal/api"
)

// fakeSource is a scripted Source: each Tick observes the current
// depth/capacity pair the test has staged.
type fakeSource struct {
	depth, capacity int
}

func (s *fakeSource) QueuePressure() (int, int) { return s.depth, s.capacity }

func TestConfigNormalizeDefaults(t *testing.T) {
	var c Config
	c.normalize()
	if c.HighDepthFrac != 0.75 || c.LowDepthFrac != 0.25 {
		t.Fatalf("depth fracs = %v/%v, want 0.75/0.25", c.HighDepthFrac, c.LowDepthFrac)
	}
	if c.EnterTicks != 2 || c.ExitTicks != 4 {
		t.Fatalf("hysteresis = %d/%d, want 2/4", c.EnterTicks, c.ExitTicks)
	}

	// An inverted low threshold is clamped under the high one.
	c = Config{HighDepthFrac: 0.5, LowDepthFrac: 0.9}
	c.normalize()
	if c.LowDepthFrac >= c.HighDepthFrac {
		t.Fatalf("low frac %v not clamped below high %v", c.LowDepthFrac, c.HighDepthFrac)
	}

	// MaxWindow below the base is lifted to it (window tuning disabled).
	c = Config{BaseWindow: 0.2, MaxWindow: 0.1}
	c.normalize()
	if c.MaxWindow != 0.2 {
		t.Fatalf("MaxWindow = %v, want 0.2", c.MaxWindow)
	}

	// A negative base disables coalescing entirely.
	c = Config{BaseWindow: -1, MaxWindow: 3}
	c.normalize()
	if c.BaseWindow != 0 || c.MaxWindow != 0 {
		t.Fatalf("negative base -> %v/%v, want 0/0", c.BaseWindow, c.MaxWindow)
	}
}

func TestStaticProviderIsFixed(t *testing.T) {
	l := Limits{Mode: api.ModeNormal, BatchWindow: 0.25, Refine: true}
	p := Static(l)
	for i := 0; i < 3; i++ {
		if got := p.Limits(); got != l {
			t.Fatalf("Static.Limits() = %+v, want %+v", got, l)
		}
	}
}

func TestTickWithoutSourceIsNoOp(t *testing.T) {
	c := New(Config{BaseWindow: 0.1, MaxWindow: 0.8})
	c.Tick(1)
	c.Tick(2)
	st := c.Status()
	if st.Ticks != 0 || st.Mode != api.ModeNormal || st.LastTick != 0 {
		t.Fatalf("unattached controller ticked: %+v", st)
	}
}

// tickN drives n ticks with consecutive virtual times starting at from.
func tickN(c *Controller, from float64, n int) float64 {
	for i := 0; i < n; i++ {
		c.Tick(from)
		from++
	}
	return from
}

func TestTickEscalatesAndRecovers(t *testing.T) {
	src := &fakeSource{depth: 0, capacity: 8}
	c := New(Config{BaseWindow: 0.1, MaxWindow: 0.8, EnterTicks: 2, ExitTicks: 3})
	var trans [][2]api.Mode
	c.Attach(src, func(from, to api.Mode) { trans = append(trans, [2]api.Mode{from, to}) })

	// Sustained pressure: 6 at 0.75*8 is the high threshold.
	src.depth = 6
	now := tickN(c, 1, 4)
	if got := c.Mode(); got != api.ModeShedding {
		t.Fatalf("after 4 pressured ticks mode = %v, want shedding", got)
	}
	if l := c.Limits(); l.Mode != api.ModeShedding || l.Refine {
		t.Fatalf("Limits under shedding = %+v", l)
	}

	// Sustained drain: 2 at 0.25*8 is the low threshold.
	src.depth = 2
	now = tickN(c, now, 6)
	if got := c.Mode(); got != api.ModeNormal {
		t.Fatalf("after 6 drained ticks mode = %v, want normal", got)
	}
	if l := c.Limits(); !l.Refine {
		t.Fatal("refinement still off after recovery")
	}

	want := [][2]api.Mode{
		{api.ModeNormal, api.ModeHeuristicOnly},
		{api.ModeHeuristicOnly, api.ModeShedding},
		{api.ModeShedding, api.ModeHeuristicOnly},
		{api.ModeHeuristicOnly, api.ModeNormal},
	}
	if len(trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, trans[i], want[i])
		}
	}

	st := c.Status()
	if st.ModeChanges != 4 || st.Ticks != 10 {
		t.Fatalf("status = %+v, want 4 mode changes over 10 ticks", st)
	}
	if st.LastTick != now-1 {
		t.Fatalf("LastTick = %v, want %v", st.LastTick, now-1)
	}
}

func TestMidBandResetsStreaks(t *testing.T) {
	src := &fakeSource{depth: 6, capacity: 8}
	c := New(Config{EnterTicks: 2})
	c.Attach(src, nil)

	// One pressured tick, then a mid-band tick (between 2 and 6), then
	// one more pressured tick: the streak restarted, so no escalation.
	c.Tick(1)
	src.depth = 4
	c.Tick(2)
	src.depth = 6
	c.Tick(3)
	if got := c.Mode(); got != api.ModeNormal {
		t.Fatalf("interrupted streak escalated to %v", got)
	}
	// Two consecutive pressured ticks do escalate.
	c.Tick(4)
	if got := c.Mode(); got != api.ModeHeuristicOnly {
		t.Fatalf("mode = %v, want heuristic_only", got)
	}
}

func TestWindowStretchAndShrink(t *testing.T) {
	src := &fakeSource{depth: 8, capacity: 8}
	c := New(Config{BaseWindow: 0.1, MaxWindow: 1.6, EnterTicks: 100, ExitTicks: 100})
	c.Attach(src, nil)

	// Each pressured tick doubles the window toward the ceiling:
	// 0.1 -> 0.2 -> 0.4 -> 0.8 -> 1.6 -> 1.6 (capped).
	want := []float64{0.2, 0.4, 0.8, 1.6, 1.6}
	for i, w := range want {
		c.Tick(float64(i + 1))
		if got := c.Limits().BatchWindow; got != w {
			t.Fatalf("tick %d window = %v, want %v", i+1, got, w)
		}
	}

	// Drained ticks halve it back, never below the base.
	src.depth = 0
	want = []float64{0.8, 0.4, 0.2, 0.1, 0.1}
	for i, w := range want {
		c.Tick(float64(i + 10))
		if got := c.Limits().BatchWindow; got != w {
			t.Fatalf("drain tick %d window = %v, want %v", i+1, got, w)
		}
	}

	st := c.Status()
	if st.Stretches != 4 || st.Shrinks != 4 {
		t.Fatalf("stretches/shrinks = %d/%d, want 4/4", st.Stretches, st.Shrinks)
	}
}

func TestWindowStretchFromZeroBase(t *testing.T) {
	src := &fakeSource{depth: 8, capacity: 8}
	c := New(Config{BaseWindow: 0, MaxWindow: 0.8, EnterTicks: 100})
	c.Attach(src, nil)
	c.Tick(1)
	if got := c.Limits().BatchWindow; got != 0.1 {
		t.Fatalf("first stretch from zero = %v, want MaxWindow/8 = 0.1", got)
	}
}

func TestWindowTuningDisabledWithoutMaxWindow(t *testing.T) {
	src := &fakeSource{depth: 8, capacity: 8}
	c := New(Config{BaseWindow: 0.1, EnterTicks: 100})
	c.Attach(src, nil)
	tickN(c, 1, 5)
	if got := c.Limits().BatchWindow; got != 0.1 {
		t.Fatalf("window moved to %v with tuning disabled", got)
	}
	if st := c.Status(); st.Stretches != 0 {
		t.Fatalf("stretches = %d with tuning disabled", st.Stretches)
	}
}

func TestLatencySignalEscalates(t *testing.T) {
	// Queues stay empty; only the latency signal carries pressure.
	src := &fakeSource{depth: 0, capacity: 8}
	c := New(Config{HighLatency: 10 * time.Millisecond, EnterTicks: 2})
	c.Attach(src, nil)

	c.ObserveLatency(20 * time.Millisecond)
	c.Tick(1)
	c.ObserveLatency(30 * time.Millisecond)
	c.Tick(2)
	if got := c.Mode(); got != api.ModeHeuristicOnly {
		t.Fatalf("latency pressure did not escalate: %v", got)
	}

	// The accumulator was swapped out each tick: with no fresh samples
	// the drained queues win and the controller recovers.
	tickN(c, 3, 4)
	if got := c.Mode(); got != api.ModeNormal {
		t.Fatalf("mode = %v after drain, want normal", got)
	}
}

func TestLatencyBelowThresholdIsNotPressure(t *testing.T) {
	src := &fakeSource{depth: 0, capacity: 8}
	c := New(Config{HighLatency: 10 * time.Millisecond, EnterTicks: 1})
	c.Attach(src, nil)
	c.ObserveLatency(2 * time.Millisecond)
	c.Tick(1)
	if got := c.Mode(); got != api.ModeNormal {
		t.Fatalf("sub-threshold latency escalated to %v", got)
	}
}

func TestNoteShedCounts(t *testing.T) {
	c := New(Config{})
	c.NoteShed()
	c.NoteShed()
	if st := c.Status(); st.Sheds != 2 {
		t.Fatalf("Sheds = %d, want 2", st.Sheds)
	}
}
