// Package rm implements the online runtime manager (RM) of the paper: the
// component that is activated on every request arrival, transforms the
// design-time operating points into a segmented schedule via a pluggable
// scheduler (MMKP-MDF by default), admits or rejects the request, tracks
// job progress along the active schedule, and accounts energy.
//
// The evaluation section of the paper exercises schedulers on static
// snapshots; this package closes the loop for the dynamic workloads the
// introduction motivates: requests arrive at any time, the set of running
// applications changes, and admitted jobs must never miss their firm
// deadlines.
package rm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/job"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
)

// Sentinel errors of the manager, exported so service front-ends can
// map them onto a transport-level taxonomy with errors.Is instead of
// string matching. All are returned wrapped with contextual detail.
var (
	// ErrUnknownApp: the request names an application absent from the
	// library.
	ErrUnknownApp = errors.New("rm: unknown application")
	// ErrBadDeadline: the deadline is not strictly after the arrival.
	ErrBadDeadline = errors.New("rm: deadline not after arrival")
	// ErrTimeBackwards: a request or advance targets a time before the
	// manager's clock.
	ErrTimeBackwards = errors.New("rm: time moved backwards")
	// ErrNoSuchJob: a cancellation names a job that is not active.
	ErrNoSuchJob = errors.New("rm: no active job")
)

// Completion describes one finished job.
type Completion struct {
	// JobID is the finished job.
	JobID int
	// At is the completion time.
	At float64
	// Missed reports a deadline violation (must never happen for
	// admitted jobs; tracked defensively).
	Missed bool
}

// Stats aggregates manager activity. The admission counters satisfy the
// lifecycle invariant Accepted = Completed + Cancelled + active jobs at
// every quiescent point (pinned by a property test).
type Stats struct {
	// Submitted counts all requests, Accepted and Rejected its split.
	Submitted, Accepted, Rejected int
	// Completed counts finished jobs, DeadlineMisses the (defensive)
	// violations among them.
	Completed, DeadlineMisses int
	// Cancelled counts jobs aborted while active. A cancellation of an
	// already-completed (or never-admitted) job returns ErrNoSuchJob and
	// touches no counter.
	Cancelled int
	// Energy is the energy of all executed schedule fractions (J).
	Energy float64
	// Activations counts scheduler invocations, SchedulingTime their
	// cumulative wall time.
	Activations    int
	SchedulingTime time.Duration
	// Swapped counts accepted anytime-refinement schedule swaps
	// (SwapSchedule offers that validated and were strictly cheaper).
	Swapped int
}

// Options tunes the manager.
type Options struct {
	// Fallback, when non-nil, is the cheap heuristic scheduler used in
	// place of the configured one while the manager's degradation mode
	// is ModeHeuristicOnly or higher (SetMode) — typically the plain
	// MMKP-MDF solver without cache wrapping, so degraded admission
	// costs exactly one pure heuristic solve. Like Scheduler it must
	// not be shared across devices unless stateless and goroutine-safe.
	// Mode changes travel the event log, so replay picks the same
	// scheduler at every point and stays byte-identical.
	Fallback sched.Scheduler
}

// Manager is the online runtime manager.
type Manager struct {
	plat      platform.Platform
	lib       *opset.Library
	scheduler sched.Scheduler
	opt       Options

	now     float64
	nextID  int
	active  job.Set
	current *schedule.Schedule
	stats   Stats
	// mode is the degradation tier (see mode.go); from
	// ModeHeuristicOnly up, schedule() prefers opt.Fallback.
	mode api.Mode

	// Event plumbing (see events.go): sink observes lifecycle events,
	// eventSeq numbers them, started tracks which active jobs already
	// emitted JobStarted. All nil/zero — and cost-free — until
	// SetEventSink installs an observer.
	sink     func(Event)
	eventSeq uint64
	started  map[int]bool
}

// New creates a manager. The library provides the operating-point tables
// requests refer to by name.
func New(plat platform.Platform, lib *opset.Library, scheduler sched.Scheduler, opt Options) (*Manager, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if lib == nil || lib.Len() == 0 {
		return nil, errors.New("rm: empty library")
	}
	if err := lib.Validate(plat); err != nil {
		return nil, err
	}
	if scheduler == nil {
		return nil, errors.New("rm: nil scheduler")
	}
	return &Manager{
		plat:      plat,
		lib:       lib,
		scheduler: scheduler,
		opt:       opt,
		nextID:    1,
		current:   &schedule.Schedule{},
	}, nil
}

// Now returns the manager's current time.
func (m *Manager) Now() float64 { return m.now }

// Stats returns a copy of the accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

// ActiveJobs returns a snapshot of the unfinished admitted jobs.
func (m *Manager) ActiveJobs() job.Set { return m.active.Clone() }

// CurrentSchedule returns a deep copy of the active schedule, so callers
// (Gantt renderers, fleet shards snapshotting mid-traffic) can hold or
// mutate it without racing the manager's own bookkeeping.
func (m *Manager) CurrentSchedule() *schedule.Schedule { return m.current.Clone() }

// NextCompletion returns the earliest planned job completion after the
// current time, or ok=false when nothing is running.
func (m *Manager) NextCompletion() (float64, bool) {
	best := math.Inf(1)
	for _, j := range m.active {
		f := m.current.FinishTime(j.ID)
		if !math.IsNaN(f) && f > m.now && f < best {
			best = f
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// AdvanceTo moves time forward to t, accounting progress and energy along
// the current schedule and retiring finished jobs. It returns the
// completions that occurred in (now, t]. A target inside the epsilon
// band just below the current time is tolerated but never moves the
// clock backwards. The schedule in force is never re-planned here:
// what ran over (now, t] is that schedule cut at the returned
// completions (schedule.Executed).
//
// An explicit advance that moves the clock emits EventClockAdvanced
// after the progress events, so the event log records every clock
// movement and stays replayable as an operation log. The interior
// advance performed by Submit/SubmitBatch goes through advanceTo
// directly and emits no clock event.
func (m *Manager) AdvanceTo(t float64) ([]Completion, error) {
	before := m.now
	done, err := m.advanceTo(t)
	if err == nil && m.now > before {
		m.emit(Event{Type: EventClockAdvanced, At: m.now})
	}
	return done, err
}

func (m *Manager) advanceTo(t float64) ([]Completion, error) {
	if t < m.now-schedule.Eps {
		return nil, fmt.Errorf("%w: %v < %v", ErrTimeBackwards, t, m.now)
	}
	var done []Completion
	for si := range m.current.Segments {
		seg := &m.current.Segments[si]
		lo := math.Max(seg.Start, m.now)
		hi := math.Min(seg.End, t)
		if hi-lo <= schedule.Eps {
			continue
		}
		for _, p := range seg.Placements {
			j := m.active.ByID(p.JobID)
			if j == nil {
				continue // already retired
			}
			pt := j.Table.Points[p.Point]
			m.emitStarted(j.ID, lo)
			frac := (hi - lo) / pt.Time
			if frac > j.Remaining {
				frac = j.Remaining
			}
			m.stats.Energy += pt.Energy * frac
			finishedAt := lo + j.Remaining*pt.Time
			j.Remaining -= frac
			if j.Remaining <= 1e-9 {
				c := Completion{JobID: j.ID, At: math.Min(finishedAt, hi)}
				if c.At > j.Deadline+1e-6 {
					c.Missed = true
					m.stats.DeadlineMisses++
				}
				m.stats.Completed++
				done = append(done, c)
				m.removeJob(j.ID)
				m.forget(j.ID)
				m.emit(Event{Type: EventJobCompleted, At: c.At, JobID: j.ID, Missed: c.Missed})
			}
		}
	}
	// Clamp: a t inside the epsilon band must not regress the clock.
	m.now = math.Max(m.now, t)
	return done, nil
}

func (m *Manager) removeJob(id int) {
	for i, j := range m.active {
		if j.ID == id {
			m.active = append(m.active[:i], m.active[i+1:]...)
			return
		}
	}
}

// Submit is the RM activation for a new request at time t: the manager
// advances to t, builds the candidate job, and attempts to schedule the
// whole job set. On success the request is admitted and the schedule
// replaced; on sched.ErrInfeasible the request is rejected and the
// previous schedule stays in force (admitted jobs are never
// compromised). Any other scheduler failure is an error, not a verdict
// — it is returned (and excluded from the Submitted/Rejected counters)
// rather than masquerading as a rejection. It returns the assigned job
// ID, the admission verdict, and the completions that occurred while
// advancing.
func (m *Manager) Submit(t float64, app string, deadline float64) (id int, accepted bool, done []Completion, err error) {
	tbl := m.lib.Get(app)
	if tbl == nil {
		return 0, false, nil, fmt.Errorf("%w: %q", ErrUnknownApp, app)
	}
	if deadline <= t {
		return 0, false, nil, fmt.Errorf("%w: %v ≤ %v", ErrBadDeadline, deadline, t)
	}
	done, err = m.advanceTo(t)
	if err != nil {
		return 0, false, done, err
	}
	id, accepted, err = m.submitOne(t, tbl, deadline)
	return id, accepted, done, err
}

// submitOne runs the post-advance half of Submit: build the candidate
// job, trial-solve the extended job set, and commit or reject. The
// clock must already stand at t. It is shared by Submit and the
// per-request fallback of SubmitBatch, so both paths stay byte-identical
// by construction.
func (m *Manager) submitOne(t float64, tbl *opset.Table, deadline float64) (id int, accepted bool, err error) {
	cand := &job.Job{
		ID:        m.nextID,
		Table:     tbl,
		Arrival:   t,
		Deadline:  deadline,
		Remaining: 1,
	}
	trial := append(m.active.Clone(), cand)
	k, serr := m.schedule(trial, t)
	if serr != nil && !errors.Is(serr, sched.ErrInfeasible) {
		return 0, false, fmt.Errorf("rm: scheduler failure: %w", serr)
	}
	m.stats.Submitted++
	if serr != nil {
		m.stats.Rejected++
		m.emit(Event{Type: EventJobRejected, At: t, App: tbl.Name(), Deadline: deadline})
		return 0, false, nil
	}
	m.nextID++
	m.active = append(m.active, cand)
	m.current = k
	m.stats.Accepted++
	m.emit(Event{Type: EventJobAdmitted, At: t, JobID: cand.ID, App: tbl.Name(), Deadline: deadline})
	m.emit(Event{Type: EventScheduleChanged, At: t})
	return cand.ID, true, nil
}

// Request is one admission request of a batch: an application name and
// its absolute firm deadline. The arrival time is the batch's.
type Request struct {
	// App names an operating-point table of the library.
	App string
	// Deadline is the absolute firm deadline, strictly after the batch
	// arrival time.
	Deadline float64
}

// Verdict is the per-request outcome of a batched submission.
type Verdict struct {
	// JobID is the admitted job's id (0 when rejected or erroneous).
	JobID int
	// Accepted is the admission verdict.
	Accepted bool
	// Err carries the per-request failure: ErrUnknownApp, ErrBadDeadline
	// or a scheduler failure. A clean rejection has Accepted false and
	// Err nil, exactly like Submit. Erroneous requests stay out of the
	// Submitted/Rejected counters, also like Submit.
	Err error
}

// SubmitBatch is the batched RM activation: all requests arrive at time
// t and are decided in one manager call. The manager advances to t
// once, then attempts a single whole-batch solve over the active jobs
// plus every valid request. When that joint solve is feasible the
// scheduler's monotonicity (dropping jobs from a feasible set keeps it
// feasible) implies every prefix is feasible too, so all requests are
// admitted after one activation instead of one per request — verdicts,
// job ids, the final schedule and the admission statistics are
// byte-identical to sequential Submit calls at the same t, with only
// Activations/SchedulingTime reflecting the saved work. When the joint
// solve is infeasible (at least one request must be rejected) the batch
// falls back to the exact sequential path, deciding each request in
// order with its own trial solve, so the fallback costs one activation
// more than sequential submission while producing the same outcome.
//
// The returned completions are those the initial advance produced —
// under sequential submission the first Submit at t would have carried
// them. A top-level error (the advance failed) leaves no verdicts.
func (m *Manager) SubmitBatch(t float64, reqs []Request) ([]Verdict, []Completion, error) {
	verdicts := make([]Verdict, len(reqs))
	tables := make([]*opset.Table, len(reqs))
	valid := 0
	for i, r := range reqs {
		tbl := m.lib.Get(r.App)
		switch {
		case tbl == nil:
			verdicts[i].Err = fmt.Errorf("%w: %q", ErrUnknownApp, r.App)
		case r.Deadline <= t:
			verdicts[i].Err = fmt.Errorf("%w: %v ≤ %v", ErrBadDeadline, r.Deadline, t)
		default:
			tables[i] = tbl
			valid++
		}
	}
	if valid == 0 {
		// Sequential submission of only invalid requests never advances
		// the clock; neither does the batch.
		return verdicts, nil, nil
	}
	done, err := m.advanceTo(t)
	if err != nil {
		return nil, done, err
	}
	// Fast path: one joint solve admits the whole batch. A single valid
	// request gains nothing from it (the joint solve IS its trial
	// solve), so it goes straight to the sequential path.
	if valid > 1 && m.admitJointly(t, reqs, tables, verdicts) {
		return verdicts, done, nil
	}
	// Fallback: decide each request in arrival order exactly as
	// sequential Submit calls at t would.
	for i := range reqs {
		if tables[i] == nil {
			continue // verdict already carries the validation error
		}
		verdicts[i].JobID, verdicts[i].Accepted, verdicts[i].Err = m.submitOne(t, tables[i], reqs[i].Deadline)
	}
	return verdicts, done, nil
}

// admitJointly attempts the whole-batch solve: the active jobs plus one
// candidate per valid request, ids assigned in arrival order. On
// success it commits everything — schedule, active set, stats — and
// fills the verdicts, reporting true. On any solver failure it leaves
// the manager untouched and reports false, sending the batch to the
// sequential fallback (which also surfaces per-request hard errors the
// way Submit would).
func (m *Manager) admitJointly(t float64, reqs []Request, tables []*opset.Table, verdicts []Verdict) bool {
	trial := m.active.Clone()
	id := m.nextID
	for i, tbl := range tables {
		if tbl == nil {
			continue
		}
		trial = append(trial, &job.Job{
			ID:        id,
			Table:     tbl,
			Arrival:   t,
			Deadline:  reqs[i].Deadline,
			Remaining: 1,
		})
		id++
	}
	k, serr := m.schedule(trial, t)
	if serr != nil {
		return false
	}
	cands := trial[len(m.active):]
	m.active = append(m.active, cands...)
	m.nextID = id
	m.current = k
	m.stats.Submitted += len(cands)
	m.stats.Accepted += len(cands)
	vi := 0
	for i := range verdicts {
		if tables[i] == nil {
			continue
		}
		verdicts[i].JobID = cands[vi].ID
		verdicts[i].Accepted = true
		m.emit(Event{Type: EventJobAdmitted, At: t, JobID: cands[vi].ID, App: tables[i].Name(), Deadline: reqs[i].Deadline})
		vi++
	}
	m.emit(Event{Type: EventScheduleChanged, At: t})
	return true
}

// schedule invokes the pluggable scheduler with stats accounting. In a
// degraded mode (ModeHeuristicOnly and up) the fallback heuristic, when
// configured, takes the activation instead of the configured scheduler.
// Schedulers declaring sched.SelfValidating skip the re-validation —
// their results are already checked against (jobs, plat, t).
func (m *Manager) schedule(jobs job.Set, t float64) (*schedule.Schedule, error) {
	s := m.scheduler
	if m.mode != api.ModeNormal && m.opt.Fallback != nil {
		s = m.opt.Fallback
	}
	m.stats.Activations++
	start := time.Now()
	k, err := s.Schedule(jobs, m.plat, t)
	m.stats.SchedulingTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	if sv, ok := s.(sched.SelfValidating); !ok || !sv.ValidatesOutput() {
		if verr := k.Validate(m.plat, jobs, t); verr != nil {
			return nil, fmt.Errorf("rm: scheduler %s produced invalid schedule: %w", s.Name(), verr)
		}
	}
	return k, nil
}

// Cancel removes an active job at the manager's current time (e.g. the
// user aborted the application). The freed resources are reused by
// re-planning the remaining jobs; the previous schedule minus the job's
// future placements stays in force if re-planning fails (it cannot make
// the remaining jobs infeasible, since they keep their placements).
//
// A job that already completed (or was never admitted, or was already
// cancelled) is not active: the call returns ErrNoSuchJob and mutates
// nothing — no counter, no schedule, no event.
func (m *Manager) Cancel(jobID int) error {
	if m.active.ByID(jobID) == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchJob, jobID)
	}
	m.removeJob(jobID)
	m.forget(jobID)
	m.stats.Cancelled++
	m.emit(Event{Type: EventJobCancelled, At: m.now, JobID: jobID})
	defer m.emit(Event{Type: EventScheduleChanged, At: m.now})
	if len(m.active) == 0 {
		m.current = &schedule.Schedule{}
		return nil
	}
	if k, err := m.schedule(m.active.Clone(), m.now); err == nil {
		m.current = k
		return nil
	}
	// Keep the old plan with the cancelled job's placements stripped;
	// remaining jobs retain exactly their previous placements.
	kept := &schedule.Schedule{}
	for _, seg := range m.current.Segments {
		var ps []schedule.Placement
		for _, p := range seg.Placements {
			if p.JobID != jobID {
				ps = append(ps, p)
			}
		}
		if len(ps) > 0 {
			kept.Segments = append(kept.Segments, schedule.Segment{
				Start: seg.Start, End: seg.End, Placements: ps,
			})
		}
	}
	m.current = kept
	return nil
}

// Drain advances time until every admitted job has completed and returns
// all completions.
func (m *Manager) Drain() ([]Completion, error) {
	var all []Completion
	for len(m.active) > 0 {
		horizon := m.current.Horizon(m.now)
		if horizon <= m.now+schedule.Eps {
			return all, fmt.Errorf("rm: %d active jobs but empty schedule", len(m.active))
		}
		next, ok := m.NextCompletion()
		if !ok {
			next = horizon
		}
		done, err := m.AdvanceTo(next)
		if err != nil {
			return all, err
		}
		all = append(all, done...)
	}
	return all, nil
}
