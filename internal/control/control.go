// Package control closes the feedback loop over the serving stack's
// admission knobs: a deterministic, externally-ticked controller
// observes per-shard queue depth and admission latency and owns three
// actuators — the coalescing window, the solver degradation tier, and
// refinement-pool throttling. The shape follows the coordinated
// runtime controllers of Nejat et al. (arXiv 1911.05101) and the
// graceful allocation-quality degradation of E-Mapper (arXiv
// 2406.18980): under pressure the system first amortises work
// (stretching the batch window), then trades solution quality for
// latency (heuristic-only admission, refinement off), and finally
// sheds load outright rather than collapsing.
//
// The controller is virtual-clock friendly: it takes no time source of
// its own. Tick(now) is driven externally — a wall-clock ticker in the
// daemon, explicit calls in tests — and every decision is a pure
// function of the observed Source and the tick sequence, so a seeded
// trace plus a fixed tick schedule reproduces the same mode
// transitions byte-for-byte. Limits() and Tick() are allocation-free
// (gated by BenchmarkControlTick in CI); layers read a Limits snapshot
// per activation instead of consulting static options.
package control

import (
	"math"
	"sync/atomic"
	"time"

	"adaptrm/internal/api"
)

// Limits is the per-activation snapshot of every actuator the
// controller owns. Layers read one snapshot per operation pickup — a
// value, not a pointer, so a reader's view is internally consistent
// even while Tick retunes the controller concurrently.
type Limits struct {
	// Mode is the degradation tier.
	Mode api.Mode
	// BatchWindow is the coalescing window in seconds of virtual time
	// (0 disables coalescing), tuned between the configured base and
	// max under queue pressure.
	BatchWindow float64
	// Refine reports whether refinement offers may be enqueued.
	Refine bool
}

// Provider hands out Limits snapshots. The fleet reads its provider on
// every operation pickup; Static is the controller-less implementation
// whose snapshot never changes, pinning byte-identical behaviour to a
// build without the control layer.
type Provider interface {
	Limits() Limits
}

type staticProvider struct{ l Limits }

func (p staticProvider) Limits() Limits { return p.l }

// Static returns a fixed Provider: the re-homed form of the historical
// static knobs (Options.BatchWindow, Options.Refine).
func Static(l Limits) Provider { return staticProvider{l} }

// Source is the controller's view of the observed system.
type Source interface {
	// QueuePressure returns the current maximum pending-operation count
	// over all shard mailboxes and the per-shard mailbox capacity.
	QueuePressure() (maxDepth, capacity int)
}

// Config tunes the controller. The zero value is usable: sensible
// hysteresis defaults, window tuning disabled (MaxWindow 0), latency
// signal disabled (HighLatency 0).
type Config struct {
	// BaseWindow is the coalescing window at rest, in seconds of
	// virtual time (the re-homed Options.BatchWindow).
	BaseWindow float64
	// MaxWindow is the ceiling the controller may stretch the window to
	// under queue pressure. Zero (or a value at or below BaseWindow)
	// disables window tuning: the window stays pinned at BaseWindow.
	MaxWindow float64
	// HighDepthFrac is the queue-pressure threshold: a max shard depth
	// at or above HighDepthFrac × mailbox capacity is an overload
	// signal. Zero means 0.75.
	HighDepthFrac float64
	// LowDepthFrac is the drain threshold: a max shard depth at or
	// below LowDepthFrac × mailbox capacity is an underload signal.
	// Zero means 0.25 (clamped below HighDepthFrac).
	LowDepthFrac float64
	// HighLatency, when positive, adds a second overload signal: a mean
	// observed admission latency at or above it over one tick interval
	// counts as pressure even with shallow queues. Zero disables the
	// latency signal (deterministic tests use depth only).
	HighLatency time.Duration
	// EnterTicks is the number of consecutive pressured ticks before
	// the controller escalates one tier. Zero means 2.
	EnterTicks int
	// ExitTicks is the number of consecutive drained ticks before the
	// controller de-escalates one tier. Zero means 4 — recovery is
	// deliberately slower than degradation so the system does not
	// oscillate at the boundary.
	ExitTicks int
}

func (c *Config) normalize() {
	if c.HighDepthFrac <= 0 {
		c.HighDepthFrac = 0.75
	}
	if c.LowDepthFrac <= 0 {
		c.LowDepthFrac = 0.25
	}
	if c.LowDepthFrac >= c.HighDepthFrac {
		c.LowDepthFrac = c.HighDepthFrac / 2
	}
	if c.EnterTicks <= 0 {
		c.EnterTicks = 2
	}
	if c.ExitTicks <= 0 {
		c.ExitTicks = 4
	}
	if c.MaxWindow < c.BaseWindow {
		c.MaxWindow = c.BaseWindow
	}
	if c.BaseWindow < 0 {
		c.BaseWindow, c.MaxWindow = 0, 0
	}
}

// Status is an observability snapshot of the controller for /v1/stats,
// /metrics and shutdown reports.
type Status struct {
	// Mode is the current degradation tier, BatchWindow the current
	// coalescing window.
	Mode        api.Mode
	BatchWindow float64
	// Ticks counts Tick invocations, ModeChanges the tier transitions
	// (both directions), Stretches/Shrinks the window decisions, and
	// Sheds the admission requests rejected early in api.ModeShedding.
	Ticks, ModeChanges, Stretches, Shrinks, Sheds int64
	// LastTick is the virtual time of the most recent Tick.
	LastTick float64
}

// Controller is the closed-loop tuner. All cross-goroutine state is
// atomic: Limits, ObserveLatency and NoteShed are safe from any
// goroutine and allocation-free; Tick must be driven from a single
// goroutine (a ticker in the daemon, the test body in tests).
type Controller struct {
	cfg Config

	// src and onMode are bound once by Attach before any Tick.
	src    Source
	onMode func(from, to api.Mode)

	mode     atomic.Int32
	window   atomic.Uint64 // math.Float64bits of the current window
	lastTick atomic.Uint64 // math.Float64bits of the last Tick's now

	// Admission-latency accumulation for the current tick interval.
	latSum atomic.Int64 // nanoseconds
	latCnt atomic.Int64

	sheds       atomic.Int64
	ticks       atomic.Int64
	modeChanges atomic.Int64
	stretches   atomic.Int64
	shrinks     atomic.Int64

	// Hysteresis streaks, touched only by the Tick goroutine.
	over, under int
}

// New builds a controller. Attach binds it to the observed system
// before ticking starts (the fleet does this when the controller is
// handed to it via Options.Control).
func New(cfg Config) *Controller {
	cfg.normalize()
	c := &Controller{cfg: cfg}
	c.window.Store(math.Float64bits(cfg.BaseWindow))
	return c
}

// Attach binds the controller to its observed source and the mode-
// transition hook (invoked synchronously from Tick, in transition
// order). Must happen before the first Tick; Ticks before Attach are
// no-ops.
func (c *Controller) Attach(src Source, onMode func(from, to api.Mode)) {
	c.src = src
	c.onMode = onMode
}

// Limits returns the current actuator snapshot. Allocation-free — it
// is read on every operation pickup.
func (c *Controller) Limits() Limits {
	m := api.Mode(c.mode.Load())
	return Limits{
		Mode:        m,
		BatchWindow: math.Float64frombits(c.window.Load()),
		Refine:      m == api.ModeNormal,
	}
}

// Mode returns the current degradation tier.
func (c *Controller) Mode() api.Mode { return api.Mode(c.mode.Load()) }

// ObserveLatency records one admission's service latency into the
// current tick interval. Allocation-free; safe from any goroutine.
func (c *Controller) ObserveLatency(d time.Duration) {
	c.latSum.Add(int64(d))
	c.latCnt.Add(1)
}

// NoteShed counts one admission request rejected early under
// api.ModeShedding.
func (c *Controller) NoteShed() { c.sheds.Add(1) }

// Status snapshots the controller's observability counters.
func (c *Controller) Status() Status {
	return Status{
		Mode:        api.Mode(c.mode.Load()),
		BatchWindow: math.Float64frombits(c.window.Load()),
		Ticks:       c.ticks.Load(),
		ModeChanges: c.modeChanges.Load(),
		Stretches:   c.stretches.Load(),
		Shrinks:     c.shrinks.Load(),
		Sheds:       c.sheds.Load(),
		LastTick:    math.Float64frombits(c.lastTick.Load()),
	}
}

// Tick runs one control decision at virtual time now: read the queue
// and latency signals, update the hysteresis streaks, and actuate —
// stretch the window and escalate one tier under sustained pressure,
// shrink and de-escalate under sustained drain. Deterministic for a
// given source-observation sequence; allocation-free (gated in CI).
func (c *Controller) Tick(now float64) {
	if c.src == nil {
		return
	}
	c.ticks.Add(1)
	c.lastTick.Store(math.Float64bits(now))
	depth, capacity := c.src.QueuePressure()
	high, low := false, true
	if capacity > 0 {
		d := float64(depth)
		high = d >= c.cfg.HighDepthFrac*float64(capacity)
		low = d <= c.cfg.LowDepthFrac*float64(capacity)
	}
	// The latency signal only escalates, never vetoes a drain signal on
	// its own tick — but a latency-pressured tick is not a drained one.
	if cnt := c.latCnt.Swap(0); true {
		sum := c.latSum.Swap(0)
		if c.cfg.HighLatency > 0 && cnt > 0 && time.Duration(sum/cnt) >= c.cfg.HighLatency {
			high, low = true, false
		}
	}
	switch {
	case high:
		c.under = 0
		c.stretchWindow()
		c.over++
		if c.over >= c.cfg.EnterTicks {
			c.over = 0
			c.escalate()
		}
	case low:
		c.over = 0
		c.shrinkWindow()
		c.under++
		if c.under >= c.cfg.ExitTicks {
			c.under = 0
			c.deescalate()
		}
	default:
		// Mid-band: hold the current tier and window, reset streaks so
		// a transition always reflects consecutive evidence.
		c.over, c.under = 0, 0
	}
}

// stretchWindow doubles the coalescing window toward MaxWindow (from
// an eighth of it when the base is zero), amortising activations
// before quality is degraded.
func (c *Controller) stretchWindow() {
	if c.cfg.MaxWindow <= 0 {
		return
	}
	w := math.Float64frombits(c.window.Load())
	nw := w * 2
	if nw == 0 {
		nw = c.cfg.MaxWindow / 8
	}
	if nw > c.cfg.MaxWindow {
		nw = c.cfg.MaxWindow
	}
	if nw != w {
		c.window.Store(math.Float64bits(nw))
		c.stretches.Add(1)
	}
}

// shrinkWindow halves the window back toward the base once pressure is
// gone.
func (c *Controller) shrinkWindow() {
	w := math.Float64frombits(c.window.Load())
	nw := w / 2
	if nw <= c.cfg.BaseWindow {
		nw = c.cfg.BaseWindow
	}
	if nw != w {
		c.window.Store(math.Float64bits(nw))
		c.shrinks.Add(1)
	}
}

func (c *Controller) escalate() {
	if m := api.Mode(c.mode.Load()); m < api.ModeShedding {
		c.setMode(m, m+1)
	}
}

func (c *Controller) deescalate() {
	if m := api.Mode(c.mode.Load()); m > api.ModeNormal {
		c.setMode(m, m-1)
	}
}

func (c *Controller) setMode(from, to api.Mode) {
	c.mode.Store(int32(to))
	c.modeChanges.Add(1)
	if c.onMode != nil {
		c.onMode(from, to)
	}
}
