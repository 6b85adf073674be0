// Package fleet hosts many independent runtime-managed devices behind one
// goroutine-safe front-end, opening the concurrency dimension the
// single-device manager of package rm cannot: a service process serving
// request streams for a whole fleet of heterogeneous boards.
//
// Each device pairs a platform with its own rm.Manager (and, optionally,
// a private schedule cache); devices are statically assigned to shards,
// and each shard runs one worker goroutine draining a buffered mailbox.
// Per-device request order is preserved — a device always maps to the
// same shard and mailboxes are FIFO — so every device evolves exactly as
// it would under the sequential manager, and fleet-wide aggregates are
// deterministic for a given per-device request order regardless of shard
// count or goroutine interleaving. Wall-clock quantities (scheduling
// time, queue high-water marks) are the only nondeterministic outputs.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptrm/internal/anytime"
	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/opset"
	"adaptrm/internal/placement"
	"adaptrm/internal/platform"
	"adaptrm/internal/rm"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// DeviceConfig describes one device of the fleet.
type DeviceConfig struct {
	// Platform is the device's hardware model.
	Platform platform.Platform
	// Library provides the operating-point tables served on the device.
	Library *opset.Library
	// Scheduler plans schedules for this device. Each device needs its
	// own instance unless the implementation is known to be stateless
	// and goroutine-safe; the fleet never shares it across devices.
	Scheduler sched.Scheduler
	// Fallback, when non-nil, is the device's cheap heuristic scheduler
	// for degraded modes (rm.Options.Fallback): while the degradation
	// controller holds the fleet at ModeHeuristicOnly or above,
	// admission solves run here instead of Scheduler — typically a
	// plain MMKP-MDF instance without cache wrapping. Like Scheduler it
	// must not be shared across devices unless stateless and
	// goroutine-safe. Ignored without Options.Control.
	Fallback sched.Scheduler
}

// Options tunes the fleet front-end.
type Options struct {
	// Shards is the number of worker goroutines; devices are assigned
	// round-robin (device i → shard i mod Shards). Zero means 1.
	// Ignored when Placement is set — the placement's owner count
	// becomes the shard count.
	Shards int
	// Placement maps devices onto shards. Nil means the historical
	// default, placement.Modulo(Shards) — device i → shard i mod
	// Shards, byte-identical to the fleet before the placement layer
	// existed. A custom placement (e.g. a placement.Ring shared with a
	// multi-node router) must return owners in [0, Owners()) and
	// defines the shard count via Owners().
	Placement placement.Placement
	// MailboxSize is the per-shard request buffer; Submit blocks when
	// the target shard's mailbox is full (backpressure). Zero means 64.
	MailboxSize int
	// Manager configures every device's runtime manager.
	Manager rm.Options
	// Cache enables the per-device memoizing schedule cache, letting
	// repeated workload shapes skip the solve.
	Cache bool
	// CacheParams tunes the per-device caches when Cache is set.
	CacheParams schedcache.Params
	// SharedCache, when non-nil, backs every per-device cache with one
	// fleet-wide read-mostly second tier: a solve on any device becomes
	// a lookup candidate on all of them (cross-device promotion), and a
	// warm tier loaded from disk (schedcache.Shared.Load) serves its
	// entries from the first request on. Requires Cache.
	SharedCache *schedcache.Shared
	// Refine enables the anytime refinement pool: every accepted
	// admission is offered to a bounded background EX-MEM search seeded
	// with the admitted schedule's energy as the incumbent; a strictly
	// cheaper exact schedule is swapped in through the normal event
	// machinery (rm.SwapSchedule). With Refine off, fleet behaviour is
	// byte-identical to a build without the feature.
	Refine bool
	// RefineBudget caps each background search's node count; zero means
	// anytime.DefaultBudget.
	RefineBudget int64
	// RefineWorkers is the background worker count when Refine is set.
	// Zero means 1; negative starts none, leaving the pool to be
	// stepped explicitly through Refiner (deterministic tests).
	RefineWorkers int
	// RefineQueue bounds the pending refinement tasks; zero means
	// anytime.DefaultQueue. Offers beyond the bound are dropped — the
	// device keeps its heuristic schedule.
	RefineQueue int
	// BatchWindow enables batched admission: a shard worker picking up
	// a submit opportunistically drains further queued submits for the
	// same device whose arrival times lie within BatchWindow seconds of
	// it and decides them in one rm.Manager.SubmitBatch activation
	// (per-device FIFO order is preserved; ops for other devices and
	// non-submit ops are untouched). Coalesced requests are all stamped
	// with the latest arrival time in the batch, so a window wider than
	// zero trades at most BatchWindow seconds of admission lateness for
	// fewer scheduler activations; exactly-coincident arrivals (bursty
	// traces) coalesce without any behaviour change. Zero disables
	// coalescing. Explicit Service.SubmitBatch calls work either way.
	BatchWindow float64
	// EventHistory is the per-device retained-event window serving
	// watch resumes (WatchRequest.FromSeq); a resume reaching further
	// back than the window opens with an EventLagged marker for the
	// evicted range. Zero means 1024 events per device.
	EventHistory int
	// WatchBuffer is the default per-subscriber event buffer; a full
	// buffer converts into an EventLagged marker instead of blocking a
	// shard worker. Zero means 256; WatchRequest.Buffer overrides it
	// per subscription.
	WatchBuffer int
	// Control attaches a closed-loop degradation controller. The fleet
	// binds it to its own queue-pressure signal and mode broadcast
	// (control.Controller.Attach) and reads the controller's Limits
	// snapshot — mode, coalescing window, refinement throttle — on
	// every operation pickup instead of the static BatchWindow/Refine
	// knobs above (which then only seed the controller-less provider).
	// The caller owns ticking: drive Controller.Tick from a wall-clock
	// ticker (rmserve -control) or explicitly in tests, and stop
	// ticking before Close. Nil keeps the historical static behaviour,
	// byte-identical to a build without the control layer.
	Control *control.Controller
}

func (o *Options) normalize() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Placement == nil {
		o.Placement = placement.Modulo(o.Shards)
	} else {
		o.Shards = o.Placement.Owners()
	}
	if o.MailboxSize <= 0 {
		o.MailboxSize = 64
	}
	if o.BatchWindow < 0 {
		o.BatchWindow = 0
	}
	if o.EventHistory <= 0 {
		o.EventHistory = defaultEventHistory
	}
	if o.WatchBuffer <= 0 {
		o.WatchBuffer = defaultWatchBuffer
	}
}

// Stats aggregates fleet-wide activity. All counters except
// SchedulingTime, MaxQueueDepth and the Coalesced pair are
// deterministic for a given per-device request order — with one caveat:
// once Options.BatchWindow enables coalescing, Activations also becomes
// opportunistic (how many submits share an activation depends on queue
// timing). The admission and energy counters stay deterministic as
// long as coalesced arrivals are exactly coincident — batched
// admission is behaviour-preserving for that shape (the bursty-trace
// default). Arrivals merely near each other inside the window are
// re-stamped at the batch's latest arrival when they happen to
// coalesce, so with spread arrivals the admission counters inherit the
// opportunism too.
type Stats struct {
	// Devices is the fleet size, Shards the worker count.
	Devices, Shards int
	// Submitted counts all requests, Accepted and Rejected its split.
	Submitted, Accepted, Rejected int
	// Completed counts finished jobs, DeadlineMisses the violations.
	Completed, DeadlineMisses int
	// Cancelled counts jobs aborted while active; with Completed and the
	// live set it closes the admission ledger (accepted = completed +
	// cancelled + active).
	Cancelled int
	// Energy is the total energy of all executed schedule fractions (J).
	Energy float64
	// Activations counts scheduler invocations fleet-wide (cache hits
	// included — a hit is still a manager activation), SchedulingTime
	// their cumulative wall time.
	Activations    int
	SchedulingTime time.Duration
	// CacheHits/CacheMisses/CacheStale/CacheEvictions/CacheRepacks sum
	// the per-device schedule-cache counters (zero when caching is off).
	CacheHits, CacheMisses, CacheStale, CacheEvictions, CacheRepacks int
	// CacheSharedHits sums lookups served from the fleet-wide shared
	// tier after missing the device-local L1, and CachePromotions the
	// entries device caches offered to the shared tier that won its
	// deterministic merge. Both zero without Options.SharedCache.
	CacheSharedHits, CachePromotions int
	// Swaps counts accepted anytime-refinement schedule swaps
	// (rm.Stats.Swapped summed fleet-wide). Deterministic only when
	// refinement is driven deterministically; with background workers
	// the count depends on search/traffic interleaving.
	Swaps int
	// RefineSearches/RefineImproved/RefineSkipped/RefineDropped mirror
	// the refinement pool's counters (operational; zero without
	// Options.Refine): exact searches run, searches that beat their
	// incumbent, tasks skipped because the shared tier already held an
	// exact result, and offers dropped on a full queue.
	RefineSearches, RefineImproved, RefineSkipped, RefineDropped int
	// MaxQueueDepth is the high-water mark of pending requests over all
	// shard mailboxes (operational, not deterministic).
	MaxQueueDepth int
	// CoalescedBatches counts multi-request batches the workers formed
	// (worker-side coalescing plus explicit SubmitBatch calls), and
	// CoalescedRequests the submits that rode in them. Like
	// MaxQueueDepth they are operational: coalescing is opportunistic,
	// so the split between batched and individual submits — and with it
	// Activations — depends on queue timing once BatchWindow is set.
	CoalescedBatches, CoalescedRequests int
	// WatchSubscribers gauges the open watch subscriptions and
	// WatchDropped counts events discarded from slow subscribers'
	// bounded rings (surfaced in-stream as EventLagged markers). Both
	// are operational.
	WatchSubscribers, WatchDropped int
	// ControlMode names the degradation controller's current mode
	// (empty without Options.Control), Shed the admission requests it
	// rejected early with ErrOverloaded before any scheduler activation
	// was spent, and ControlTicks / ControlModeChanges its decision
	// counters. All operational: the controller is driven by wall-clock
	// ticks against live queue depths.
	ControlMode                      string
	Shed                             int
	ControlTicks, ControlModeChanges int
}

// AcceptRate returns Accepted / Submitted, or 0 when idle.
func (s Stats) AcceptRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Submitted)
}

// CacheHitRate returns CacheHits / (CacheHits + CacheMisses), or 0.
func (s Stats) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// device is one managed board plus its synchronisation: the mutex
// serialises the owning shard worker against Stats snapshots.
type device struct {
	id    int
	mu    sync.Mutex
	mgr   *rm.Manager
	cache *schedcache.Cache
	plat  platform.Platform
	errs  []error
	// history retains the tail of the device's event stream for watch
	// resumes; appended by the manager's event sink under mu.
	history eventRing
}

// opKind discriminates mailbox operations.
type opKind int

const (
	opSubmit opKind = iota
	opAdvance
	opCancel
	opBatch
	// opSwap offers a refined schedule to the device (fire-and-forget:
	// the manager's validation decides, rejection is not an error).
	opSwap
	// opMode exists only as a replay unit (parseReplayOps): live mode
	// transitions are broadcast directly under the device locks by
	// applyMode, never through the mailboxes — a full mailbox is exactly
	// when a transition must still land.
	opMode
)

// opReply is the outcome of one mailbox operation.
type opReply struct {
	jobID    int
	accepted bool
	done     []rm.Completion
	// verdicts carries the per-item outcomes of an opBatch.
	verdicts []rm.Verdict
	err      error
}

// op is one mailbox entry.
type op struct {
	kind         opKind
	dev          *device
	at, deadline float64
	app          string
	jobID        int
	// items holds the requests of an opBatch.
	items []rm.Request
	// swap holds the refined schedule of an opSwap.
	swap *schedule.Schedule
	// reply, when non-nil, receives the outcome (buffered size 1, so an
	// abandoned caller never blocks the worker); when nil, errors are
	// recorded on the device and surfaced by Close (async replay path).
	reply chan opReply
}

// maxCoalesce bounds worker-side batch formation so one enormous burst
// cannot starve other devices of the shard indefinitely.
const maxCoalesce = 256

// shard is one worker goroutine's mailbox and queue-depth tracking,
// plus per-worker coalescing state (scratch and counters; the scratch
// is touched only by the owning worker, the counters also by Stats).
type shard struct {
	mailbox  chan op
	depth    atomic.Int64
	maxDepth atomic.Int64
	// pending holds ops drained ahead of time while forming a batch;
	// the worker consumes it FIFO before returning to the mailbox.
	pending []op
	// batch is the worker's batch-formation scratch.
	batch []op
	items []rm.Request
	// batches/batched count multi-request batches and the submits that
	// rode in them (operational metrics, read concurrently by Stats).
	batches atomic.Int64
	batched atomic.Int64
}

// Internal sentinels distinguishing why an operation never landed, so
// the Service layer can map them onto the api taxonomy. (Replay and the
// snapshot accessors keep the historical messages.)
var (
	errClosed     = errors.New("fleet: closed")
	errOutOfRange = errors.New("out of range")
	// errMailboxBlocked marks a send that actually waited on a full
	// mailbox until the context ended — backpressure, as opposed to a
	// context that was already dead on arrival.
	errMailboxBlocked = errors.New("fleet: mailbox full")
)

// deviceErr formats the historical out-of-range message around the
// errOutOfRange sentinel.
func (f *Fleet) deviceErr(dev int) error {
	return fmt.Errorf("fleet: device %d %w [0,%d)", dev, errOutOfRange, len(f.devices))
}

// enqueue posts an operation, blocking on a full mailbox until space
// frees up or the context ends (backpressure). The high-water mark is
// published only for sends that land, so an aborted attempt does not
// publish its own depth (a concurrently landing send may still observe
// — and publish — the aborted attempt's transient contribution; the
// mark is an approximate operational metric, not a deterministic one).
func (s *shard) enqueue(ctx context.Context, o op) error {
	d := s.depth.Add(1)
	if err := ctx.Err(); err != nil {
		s.depth.Add(-1)
		return err
	}
	select {
	case s.mailbox <- o:
		for {
			max := s.maxDepth.Load()
			if d <= max || s.maxDepth.CompareAndSwap(max, d) {
				return nil
			}
		}
	case <-ctx.Done():
		s.depth.Add(-1)
		// Classify: a still-full mailbox means the send genuinely
		// waited out the context (backpressure); otherwise the caller's
		// context just ended first (the select may pick Done even when
		// space opened up). The len check is a snapshot, but the race
		// window only misattributes an error the caller caused anyway.
		if len(s.mailbox) == cap(s.mailbox) {
			return fmt.Errorf("%w: %w", errMailboxBlocked, ctx.Err())
		}
		return ctx.Err()
	}
}

// Fleet is the concurrent multi-device runtime-management service.
type Fleet struct {
	devices []*device
	shards  []*shard
	// place maps devices onto shards (Options.Placement; the modulo
	// default when unset). Static for the fleet's lifetime so
	// per-device mailbox order is preserved.
	place placement.Placement
	// limits is the per-activation knob snapshot every layer reads: the
	// degradation mode, the coalescing window and the refinement
	// throttle. Without Options.Control it is a static provider frozen
	// at the BatchWindow/Refine options (byte-identical to the
	// pre-control fleet); with a controller it is the controller itself.
	limits control.Provider
	// ctl is Options.Control (nil without a controller); kept for shed
	// accounting and Stats export.
	ctl *control.Controller
	// hub fans device events out to watchers; watchBuffer is the default
	// per-subscriber ring capacity.
	hub         *hub
	watchBuffer int
	// sharedCache is Options.SharedCache (nil when the fleet runs on
	// per-device caches only); refiner is the anytime refinement pool
	// (nil without Options.Refine), refineWorkers its Start count.
	sharedCache   *schedcache.Shared
	refiner       *anytime.Refiner
	refineWorkers int
	wg            sync.WaitGroup
	// mu guards closed: submitters hold it shared for the whole
	// enqueue, Close holds it exclusively while marking the fleet
	// closed, so no send can race the channel close.
	mu     sync.RWMutex
	closed bool
}

// New builds a fleet and starts its shard workers. Every device is
// validated eagerly (platform, library, scheduler) so a misconfigured
// fleet fails at construction, not mid-traffic.
func New(devs []DeviceConfig, opt Options) (*Fleet, error) {
	f, err := build(devs, opt)
	if err != nil {
		return nil, err
	}
	f.start()
	return f, nil
}

// build constructs and validates the fleet without starting its
// workers, so Recover can replay persisted state into the devices while
// it still owns them outright.
func build(devs []DeviceConfig, opt Options) (*Fleet, error) {
	if len(devs) == 0 {
		return nil, errors.New("fleet: no devices")
	}
	opt.normalize()
	if opt.SharedCache != nil && !opt.Cache {
		return nil, errors.New("fleet: SharedCache requires Cache")
	}
	if opt.Shards <= 0 {
		return nil, fmt.Errorf("fleet: placement reports %d owners", opt.Shards)
	}
	f := &Fleet{hub: newHub(), watchBuffer: opt.WatchBuffer,
		sharedCache: opt.SharedCache, place: opt.Placement}
	if opt.Control != nil {
		f.ctl = opt.Control
		f.limits = opt.Control
	} else {
		f.limits = control.Static(control.Limits{
			Mode:        api.ModeNormal,
			BatchWindow: opt.BatchWindow,
			Refine:      opt.Refine,
		})
	}
	for i, dc := range devs {
		s := dc.Scheduler
		var cache *schedcache.Cache
		if opt.Cache {
			cache = schedcache.New(opt.CacheParams)
			if opt.SharedCache != nil {
				cache.AttachShared(opt.SharedCache)
			}
			s = schedcache.Wrap(s, cache)
		}
		mgrOpt := opt.Manager
		if opt.Control != nil {
			mgrOpt.Fallback = dc.Fallback
		}
		mgr, err := rm.New(dc.Platform, dc.Library, s, mgrOpt)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		d := &device{id: i, mgr: mgr, cache: cache, plat: dc.Platform, history: newEventRing(opt.EventHistory)}
		f.devices = append(f.devices, d)
	}
	if opt.Refine {
		f.refineWorkers = opt.RefineWorkers
		budget := opt.RefineBudget
		if budget <= 0 {
			budget = anytime.DefaultBudget
		}
		f.refiner = anytime.New(anytime.Config{
			Budget: budget,
			Queue:  opt.RefineQueue,
			// Skip searches with nothing left to find: the shared tier —
			// filled by another device or the warm file — already holds
			// an exact schedule for the problem shape, or remembers a
			// search at least this deep that did not beat its incumbent.
			Probe: func(t anytime.Task) bool {
				d := f.devices[t.Device]
				return d.cache != nil && d.cache.ProbeSearched(t.Jobs, t.Plat, t.Now, budget)
			},
			// Remember a search that found nothing, so that no device (and
			// no daemon warmed from this tier's file) repeats it at this
			// budget.
			Searched: func(t anytime.Task, proved bool) {
				depth := budget
				if proved {
					depth = schedcache.SearchComplete
				}
				if d := f.devices[t.Device]; d.cache != nil {
					d.cache.RecordSearched(t.Jobs, t.Plat, t.Now, depth)
				}
			},
			// Promote the refined schedule into the cache tiers keyed by
			// the captured problem — worthwhile even when the swap offer
			// below loses its race against newer traffic.
			Store: func(t anytime.Task, k *schedule.Schedule) {
				if d := f.devices[t.Device]; d.cache != nil {
					d.cache.StoreExact(t.Jobs, t.Plat, t.Now, k)
				}
			},
			// Offer the schedule to the device through its shard mailbox,
			// preserving per-device FIFO order; the manager's validation
			// decides, and a post refused by a closing fleet just drops.
			Swap: func(t anytime.Task, k *schedule.Schedule) {
				_ = f.post(context.Background(), t.Device, op{kind: opSwap, swap: k})
			},
		})
	}
	f.shards = make([]*shard, opt.Shards)
	for i := range f.shards {
		f.shards[i] = &shard{mailbox: make(chan op, opt.MailboxSize)}
	}
	if f.ctl != nil {
		f.ctl.Attach(f, f.applyMode)
	}
	return f, nil
}

// start installs the live event sinks (replacing any recovery sink) and
// launches the shard workers.
func (f *Fleet) start() {
	for _, d := range f.devices {
		f.installSink(d)
	}
	f.wg.Add(len(f.shards))
	for _, sh := range f.shards {
		go f.worker(sh)
	}
	if f.refiner != nil && f.refineWorkers >= 0 {
		f.refiner.Start(f.refineWorkers)
	}
}

// Refiner exposes the anytime refinement pool (nil without
// Options.Refine). Tests built with RefineWorkers < 0 drive it
// deterministically through TryStep.
func (f *Fleet) Refiner() *anytime.Refiner { return f.refiner }

// SharedTier exposes the fleet-wide shared cache tier (nil without
// Options.SharedCache) for warm-file persistence and stats export.
func (f *Fleet) SharedTier() *schedcache.Shared { return f.sharedCache }

// NumDevices returns the fleet size.
func (f *Fleet) NumDevices() int { return len(f.devices) }

// shardOf returns the shard owning a device, resolved through the
// fleet's placement; the assignment is static so per-device mailbox
// order is preserved. With the default placement this is the historical
// dev % len(shards).
func (f *Fleet) shardOf(dev int) *shard { return f.shards[f.place.Owner(dev)] }

// worker drains one shard's mailbox, applying each operation under the
// target device's lock. Outcomes go to the op's reply channel when one
// is attached (service path); otherwise errors are recorded on the
// device and surfaced by Close (async replay path). With a batch window
// configured, a submit picked up from the queue opportunistically
// coalesces with further queued same-device submits inside the window
// (see coalesce); ops drained ahead of time while looking for batch
// members park in sh.pending and are consumed FIFO, so per-device order
// never develops holes.
func (f *Fleet) worker(sh *shard) {
	defer f.wg.Done()
	for {
		var o op
		if len(sh.pending) > 0 {
			o, sh.pending = sh.pending[0], sh.pending[1:]
		} else {
			var ok bool
			o, ok = <-sh.mailbox
			if !ok {
				return // mailbox closed and nothing parked
			}
		}
		// The coalescing window is read once per pickup and pinned for
		// the whole batch formation: under a live controller the window
		// moves between ticks, and a batch must be judged against one
		// consistent value (coalescible's deadline-validity bound depends
		// on it).
		if w := f.limits.Limits().BatchWindow; w > 0 && o.kind == opSubmit && o.deadline > o.at+w {
			f.coalesce(sh, o, w)
			continue
		}
		f.execute(sh, o)
	}
}

// deliver hands one operation outcome to its waiter, or records the
// error on the device for Close when the op is fire-and-forget. The
// device lock must be held (error recording shares it).
func deliver(o op, r opReply) {
	if o.reply != nil {
		o.reply <- r
		return
	}
	if r.err != nil {
		d := o.dev
		d.errs = append(d.errs, fmt.Errorf("fleet: device %d: %w", d.id, r.err))
	}
}

// execute applies a single operation.
func (f *Fleet) execute(sh *shard, o op) {
	d := o.dev
	var r opReply
	d.mu.Lock()
	switch o.kind {
	case opSubmit:
		r.jobID, r.accepted, r.done, r.err = d.mgr.Submit(o.at, o.app, o.deadline)
		if r.accepted {
			f.offerRefine(d)
		}
	case opAdvance:
		r.done, r.err = d.mgr.AdvanceTo(o.at)
	case opCancel:
		r.err = d.mgr.Cancel(o.jobID)
	case opBatch:
		r.verdicts, r.done, r.err = d.mgr.SubmitBatch(o.at, o.items)
		if len(o.items) > 1 {
			sh.batches.Add(1)
			sh.batched.Add(int64(len(o.items)))
		}
		if anyAccepted(r.verdicts) {
			f.offerRefine(d)
		}
	case opSwap:
		r.accepted = d.mgr.SwapSchedule(o.swap)
	}
	deliver(o, r)
	d.mu.Unlock()
	sh.depth.Add(-1)
}

// anyAccepted reports whether a batch admitted at least one request.
func anyAccepted(vs []rm.Verdict) bool {
	for _, v := range vs {
		if v.Accepted {
			return true
		}
	}
	return false
}

// offerRefine captures the device's post-admission problem and offers
// it to the refinement pool. Called under d.mu by the owning shard
// worker; the enqueue never blocks (a full queue drops the offer).
func (f *Fleet) offerRefine(d *device) {
	if f.refiner == nil || !f.limits.Limits().Refine {
		return
	}
	jobs, now, incumbent, ok := d.mgr.RefineSnapshot()
	if !ok {
		return
	}
	f.refiner.Enqueue(anytime.Task{Device: d.id, Jobs: jobs, Plat: d.plat, Now: now, Incumbent: incumbent})
}

// coalescible reports whether a queued op may join a batch seeded at
// seed: a submit for the same device whose arrival lies inside the
// window and whose deadline stays valid at any possible batch time
// (bounded by seed.at+window, since batched requests are stamped with
// the batch's latest arrival). The window is the value pinned at batch
// pickup, not a live read — see worker.
func coalescible(seed, p op, window float64) bool {
	return p.kind == opSubmit && p.dev == seed.dev &&
		p.at >= seed.at && p.at <= seed.at+window &&
		p.deadline > seed.at+window
}

// coalesce forms and executes a batch seeded by one submit: it first
// adopts matching submits already parked in sh.pending (stopping at a
// same-device op that must keep its place in line), then drains the
// mailbox without blocking. Everything non-matching parks in sh.pending
// in drain order, preserving per-device FIFO.
func (f *Fleet) coalesce(sh *shard, seed op, window float64) {
	batch := append(sh.batch[:0], seed)
	barrier := false
	for i := 0; i < len(sh.pending) && len(batch) < maxCoalesce; {
		p := sh.pending[i]
		if coalescible(seed, p, window) {
			batch = append(batch, p)
			sh.pending = append(sh.pending[:i], sh.pending[i+1:]...)
			continue
		}
		if p.dev == seed.dev {
			barrier = true
			break
		}
		i++
	}
	for !barrier && len(batch) < maxCoalesce {
		select {
		case p, ok := <-sh.mailbox:
			if !ok {
				barrier = true
				break
			}
			if coalescible(seed, p, window) {
				batch = append(batch, p)
				continue
			}
			sh.pending = append(sh.pending, p)
			barrier = p.dev == seed.dev
		default:
			barrier = true
		}
	}
	sh.batch = batch[:0] // return the scratch (ops copied below or done)
	if len(batch) == 1 {
		f.execute(sh, seed)
		return
	}
	f.executeBatch(sh, batch)
}

// executeBatch decides a coalesced batch in one manager activation at
// the latest arrival time in the batch and fans the per-item verdicts
// back out to each waiter. The completions the advance produced go to
// the first op's waiter — under sequential execution its submit would
// have observed them.
func (f *Fleet) executeBatch(sh *shard, batch []op) {
	d := batch[0].dev
	at := batch[0].at
	items := sh.items[:0]
	for _, b := range batch {
		if b.at > at {
			at = b.at
		}
		items = append(items, rm.Request{App: b.app, Deadline: b.deadline})
	}
	sh.items = items[:0]
	d.mu.Lock()
	verdicts, done, err := d.mgr.SubmitBatch(at, items)
	if err == nil && anyAccepted(verdicts) {
		f.offerRefine(d)
	}
	for i, b := range batch {
		var r opReply
		if err != nil {
			r.err = err
		} else {
			v := verdicts[i]
			r.jobID, r.accepted, r.err = v.JobID, v.Accepted, v.Err
			if i == 0 {
				r.done = done
			}
		}
		deliver(b, r)
	}
	d.mu.Unlock()
	sh.batches.Add(1)
	sh.batched.Add(int64(len(batch)))
	sh.depth.Add(int64(-len(batch)))
}

// post validates the device index and enqueues the operation while
// holding the submit lock shared, so the send cannot race Close closing
// the mailbox. The send may block on a full mailbox until the context
// ends; Close waits for a blocked send to land before closing, which is
// safe because workers keep draining until the channels close.
func (f *Fleet) post(ctx context.Context, dev int, o op) error {
	if dev < 0 || dev >= len(f.devices) {
		return f.deviceErr(dev)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return errClosed
	}
	o.dev = f.devices[dev]
	return f.shardOf(dev).enqueue(ctx, o)
}

// Cancel aborts an active job on a device, reclaiming its resources for
// the remaining jobs (the device re-plans them immediately). It waits
// for the cancellation to take effect; see [Service.Cancel] for the
// context-aware form.
func (f *Fleet) Cancel(dev, jobID int) error {
	_, err := f.Service().Cancel(context.Background(), api.CancelRequest{Device: dev, JobID: jobID})
	return err
}

// Replay submits a merged fleet trace (e.g. workload.FleetTrace output,
// already sorted per device) and returns on the first addressing error.
// Unlike Service.Submit it stays fire-and-forget — requests are enqueued without
// waiting for decisions, pipelining the shard workers — so per-request
// manager errors surface at Close, not here.
func (f *Fleet) Replay(trace []workload.FleetRequest) error {
	ctx := context.Background()
	for i, r := range trace {
		o := op{kind: opSubmit, at: r.At, app: r.App, deadline: r.Deadline}
		if err := f.post(ctx, r.Device, o); err != nil {
			return fmt.Errorf("fleet: replay entry %d: %w", i, err)
		}
	}
	return nil
}

// Close stops accepting work, waits for all mailboxes to drain, then
// drains every device's manager (running all admitted jobs to
// completion). It returns the join of all recorded device errors.
// Concurrent Submits racing a Close either enqueue before it or report
// the fleet closed; a second Close returns an error.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("fleet: already closed")
	}
	f.closed = true
	f.mu.Unlock()
	for _, sh := range f.shards {
		close(sh.mailbox)
	}
	f.wg.Wait()
	if f.refiner != nil {
		// Stop the refinement pool only after the shard workers have
		// drained: admissions executed during the drain still enqueue
		// refinement offers, and Close lets the pool finish them so their
		// exact results are promoted into the cache tiers (feeding warm
		// files). Swap offers found now are refused by the closed flag
		// inside post — no send can race a closed mailbox because post
		// checks f.closed under the lock before touching a channel.
		f.refiner.Close()
	}
	var errs []error
	for _, d := range f.devices {
		d.mu.Lock()
		if _, err := d.mgr.Drain(); err != nil {
			errs = append(errs, fmt.Errorf("fleet: device %d drain: %w", d.id, err))
		}
		errs = append(errs, d.errs...)
		d.mu.Unlock()
	}
	// Only now — after the final drain published its completion events —
	// end the watch streams: every watcher still draining receives the
	// full story before its channel closes.
	f.hub.close()
	return errors.Join(errs...)
}

// Stats aggregates per-device statistics in device order. It may be
// called while traffic is flowing (each device is snapshotted under its
// lock) or after Close for final figures.
func (f *Fleet) Stats() Stats {
	out := Stats{Devices: len(f.devices), Shards: len(f.shards)}
	for _, d := range f.devices {
		d.mu.Lock()
		ms := d.mgr.Stats()
		var cs schedcache.Stats
		if d.cache != nil {
			cs = d.cache.Stats()
		}
		d.mu.Unlock()
		out.Submitted += ms.Submitted
		out.Accepted += ms.Accepted
		out.Rejected += ms.Rejected
		out.Completed += ms.Completed
		out.DeadlineMisses += ms.DeadlineMisses
		out.Cancelled += ms.Cancelled
		out.Energy += ms.Energy
		out.Activations += ms.Activations
		out.SchedulingTime += ms.SchedulingTime
		out.CacheHits += cs.Hits
		out.CacheMisses += cs.Misses
		out.CacheStale += cs.Stale
		out.CacheEvictions += cs.Evictions
		out.CacheRepacks += cs.Repacks
		out.CacheSharedHits += cs.SharedHits
		out.CachePromotions += cs.Promotions
		out.Swaps += ms.Swapped
	}
	if f.refiner != nil {
		rs := f.refiner.Stats()
		out.RefineSearches = int(rs.Searches)
		out.RefineImproved = int(rs.Improved)
		out.RefineSkipped = int(rs.Skipped)
		out.RefineDropped = int(rs.Dropped)
	}
	for _, sh := range f.shards {
		if m := int(sh.maxDepth.Load()); m > out.MaxQueueDepth {
			out.MaxQueueDepth = m
		}
		out.CoalescedBatches += int(sh.batches.Load())
		out.CoalescedRequests += int(sh.batched.Load())
	}
	out.WatchSubscribers = f.hub.subscribers()
	out.WatchDropped = int(f.hub.dropped.Load())
	if f.ctl != nil {
		cs := f.ctl.Status()
		out.ControlMode = cs.Mode.String()
		out.Shed = int(cs.Sheds)
		out.ControlTicks = int(cs.Ticks)
		out.ControlModeChanges = int(cs.ModeChanges)
	}
	return out
}

// QueuePressure implements control.Source: the deepest pending-op
// backlog over all shard mailboxes and the per-shard mailbox capacity.
// Purely operational — depths move while being read.
func (f *Fleet) QueuePressure() (maxDepth, capacity int) {
	for _, sh := range f.shards {
		if d := int(sh.depth.Load()); d > maxDepth {
			maxDepth = d
		}
	}
	if len(f.shards) > 0 {
		capacity = cap(f.shards[0].mailbox)
	}
	return maxDepth, capacity
}

// applyMode broadcasts a controller tier transition to every device:
// each manager records the mode and emits an EventModeChanged through
// the normal event machinery under the device lock, so the transition
// rides flightlog/WAL/SSE/recovery exactly like a lifecycle event.
// Invoked synchronously from Controller.Tick on the ticking goroutine;
// callers must stop ticking before Close (a closed fleet skips the
// broadcast — its hub is ending the watch streams).
func (f *Fleet) applyMode(_, to api.Mode) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return
	}
	for _, d := range f.devices {
		d.mu.Lock()
		d.mgr.SetMode(to)
		d.mu.Unlock()
	}
}

// QueueDepths snapshots the pending-operation count of every shard
// mailbox, in shard order — the per-shard queue-depth gauge of the
// /metrics endpoint. Purely operational: depths move while being read.
func (f *Fleet) QueueDepths() []int {
	out := make([]int, len(f.shards))
	for i, sh := range f.shards {
		if d := int(sh.depth.Load()); d > 0 {
			out[i] = d
		}
	}
	return out
}

// DeviceStats returns one device's manager statistics.
func (f *Fleet) DeviceStats(dev int) (rm.Stats, error) {
	if dev < 0 || dev >= len(f.devices) {
		return rm.Stats{}, f.deviceErr(dev)
	}
	d := f.devices[dev]
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mgr.Stats(), nil
}

// DeviceNow returns a device's current virtual time.
func (f *Fleet) DeviceNow(dev int) (float64, error) {
	if dev < 0 || dev >= len(f.devices) {
		return 0, f.deviceErr(dev)
	}
	d := f.devices[dev]
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mgr.Now(), nil
}
