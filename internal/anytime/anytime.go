// Package anytime closes the quality/latency gap between the MMKP-MDF
// heuristic and the EX-MEM exact search: admissions keep answering at
// heuristic latency with the heuristic's schedule as the incumbent,
// while a bounded background refinement pool re-solves the same problem
// exactly (exmem.ScheduleBudgeted) and offers any strictly cheaper
// schedule back to the device. The swap commit point lives in the
// runtime manager (rm.SwapSchedule), which re-validates the offer
// against the device's current state — a refinement that raced a clock
// advance, an admission or a cancellation simply dies there, so the
// pool needs no coordination with the shard workers beyond a bounded
// task queue.
//
// The refiner itself is deliberately passive about scheduling policy:
// it knows nothing about fleets, caches or events. The embedder wires
// four hooks — Probe (skip work whose outcome is already fleet-visible),
// Store (promote a refined schedule into the cache tiers), Swap (offer
// it to the device) and Searched (remember a search that found nothing,
// so Probe can skip its repeats) — and chooses between background
// workers (Start) and explicit stepping (TryStep), the latter giving
// tests a virtual-clock-deterministic drive.
package anytime

import (
	"errors"
	"sync"
	"sync/atomic"

	"adaptrm/internal/exmem"
	"adaptrm/internal/job"
	"adaptrm/internal/platform"
	"adaptrm/internal/schedule"
)

// DefaultBudget is the per-search node budget when Config.Budget is
// zero: small enough that a refinement finishes in milliseconds on the
// paper's workload sizes, large enough to prove optimality for the 2–6
// job sets that dominate steady request streams.
const DefaultBudget = 2_000_000

// DefaultQueue is the pending-task capacity when Config.Queue is zero.
// The queue is intentionally shallow: a refinement for a stale problem
// is worthless, so under pressure dropping beats queueing.
const DefaultQueue = 64

// Task is one refinement unit: the scheduling problem exactly as the
// device saw it right after an admission, plus the incumbent energy the
// exact search must strictly beat. Jobs is a private clone — the
// refiner may read it from any goroutine.
type Task struct {
	// Device addresses the originating device for the Swap hook.
	Device int
	// Jobs is the admitted job set with its remaining ratios at Now.
	Jobs job.Set
	// Plat is the device's hardware model.
	Plat platform.Platform
	// Now is the virtual time the problem was captured at.
	Now float64
	// Incumbent is the remaining planned energy of the schedule in
	// force; only strictly cheaper exact schedules are reported.
	Incumbent float64
}

// Config wires a Refiner into its host.
type Config struct {
	// Budget caps the exact search's node count per task; zero means
	// DefaultBudget. A search that exhausts it keeps the incumbent.
	Budget int64
	// Queue bounds the pending tasks; zero means DefaultQueue. Enqueue
	// never blocks: offers beyond the bound are counted and dropped.
	Queue int
	// Probe, when set, reports whether a search of the task's problem
	// has nothing left to find: an exact result is already visible (e.g.
	// in a shared cache tier) or Searched has recorded a search at least
	// as deep as Budget. Such tasks are skipped without a search.
	Probe func(Task) bool
	// Store, when set, receives every strictly better exact schedule
	// for promotion into the cache tiers. Called before Swap, and even
	// when the subsequent swap offer loses its race — the schedule is a
	// valid exact solution of the captured problem regardless.
	Store func(Task, *schedule.Schedule)
	// Swap offers the refined schedule back to the device. The hook
	// must tolerate rejection (stale offers are the normal case under
	// load) and must not call back into the refiner.
	Swap func(Task, *schedule.Schedule)
	// Searched, when set, receives every search that ended without
	// beating the incumbent: proved is true when the search ran to
	// completion (exmem.ErrNoImprovement — the incumbent is optimal),
	// false when Budget cut it off (exmem.ErrBudget — the same search at
	// the same budget fails the same way). Neither outcome yields a
	// schedule, so the embedder can only remember it for Probe.
	Searched func(t Task, proved bool)
}

// Stats counts refinement activity. All counters are cumulative and
// operational: with background workers their timing depends on
// goroutine interleaving (the deterministic test drive uses TryStep).
type Stats struct {
	// Enqueued counts accepted tasks, Dropped offers refused on a full
	// queue (or after Close).
	Enqueued, Dropped int64
	// Skipped counts tasks short-circuited by the Probe hook.
	Skipped int64
	// Searches counts exact searches run; Improved the subset that
	// found a strictly cheaper schedule, NoImprovement those that
	// proved the incumbent optimal, BudgetExhausted those cut off by
	// the node budget, Failed the searches ending in any other error.
	Searches, Improved, NoImprovement, BudgetExhausted, Failed int64
}

// Refiner is the bounded anytime refinement pool.
type Refiner struct {
	cfg   Config
	tasks chan Task

	mu     sync.Mutex // guards closed against Enqueue/Close races
	closed bool
	wg     sync.WaitGroup

	// stepMu serialises TryStep callers over one private solver.
	stepMu sync.Mutex
	step   *exmem.Scheduler

	enqueued, dropped, skipped                       atomic.Int64
	searches, improved, noImprove, budgetHit, failed atomic.Int64
}

// New builds a refiner. Start background workers with Start, or drive
// it explicitly with TryStep; both consume the same queue.
func New(cfg Config) *Refiner {
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	return &Refiner{cfg: cfg, tasks: make(chan Task, cfg.Queue)}
}

// Enqueue offers one task without ever blocking: false means the queue
// was full (or the refiner closed) and the task was dropped — the
// device simply keeps its heuristic schedule.
func (r *Refiner) Enqueue(t Task) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.dropped.Add(1)
		return false
	}
	select {
	case r.tasks <- t:
		r.enqueued.Add(1)
		return true
	default:
		r.dropped.Add(1)
		return false
	}
}

// Start launches n background workers (n < 1 starts one), each with a
// private solver so searches never contend on scratch state.
func (r *Refiner) Start(n int) {
	if n < 1 {
		n = 1
	}
	r.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer r.wg.Done()
			solver := exmem.NewWithOptions(exmem.Options{NodeLimit: r.cfg.Budget})
			for t := range r.tasks {
				r.run(solver, t)
			}
		}()
	}
}

// TryStep synchronously runs one queued task and reports whether there
// was one. It is the deterministic drive for tests: enqueue under a
// virtual clock, step explicitly, observe the swap. Safe alongside
// background workers (they race for the same queue).
func (r *Refiner) TryStep() bool {
	r.stepMu.Lock()
	defer r.stepMu.Unlock()
	select {
	case t, ok := <-r.tasks:
		if !ok {
			return false
		}
		if r.step == nil {
			r.step = exmem.NewWithOptions(exmem.Options{NodeLimit: r.cfg.Budget})
		}
		r.run(r.step, t)
		return true
	default:
		return false
	}
}

// run executes one task: probe, bounded exact search, then promote and
// offer what it found or report that it found nothing.
func (r *Refiner) run(solver *exmem.Scheduler, t Task) {
	if r.cfg.Probe != nil && r.cfg.Probe(t) {
		r.skipped.Add(1)
		return
	}
	r.searches.Add(1)
	k, err := solver.ScheduleBudgeted(t.Jobs, t.Plat, t.Now, t.Incumbent)
	switch {
	case err == nil:
		r.improved.Add(1)
		if r.cfg.Store != nil {
			r.cfg.Store(t, k)
		}
		if r.cfg.Swap != nil {
			r.cfg.Swap(t, k)
		}
	case errors.Is(err, exmem.ErrNoImprovement):
		r.noImprove.Add(1)
		if r.cfg.Searched != nil {
			r.cfg.Searched(t, true)
		}
	case errors.Is(err, exmem.ErrBudget):
		r.budgetHit.Add(1)
		if r.cfg.Searched != nil {
			r.cfg.Searched(t, false)
		}
	default:
		r.failed.Add(1)
	}
}

// Close stops accepting tasks and waits for the background workers to
// finish what is already queued. Idempotent.
func (r *Refiner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.tasks)
	r.mu.Unlock()
	r.wg.Wait()
}

// Pending reports the queued-task count (operational).
func (r *Refiner) Pending() int { return len(r.tasks) }

// Stats snapshots the activity counters.
func (r *Refiner) Stats() Stats {
	return Stats{
		Enqueued:        r.enqueued.Load(),
		Dropped:         r.dropped.Load(),
		Skipped:         r.skipped.Load(),
		Searches:        r.searches.Load(),
		Improved:        r.improved.Load(),
		NoImprovement:   r.noImprove.Load(),
		BudgetExhausted: r.budgetHit.Load(),
		Failed:          r.failed.Load(),
	}
}
