// Package desim drives the online runtime manager with a timed request
// trace in a discrete-event simulation: arrivals and job completions are
// processed in time order, producing an event log, the executed timeline
// for Gantt rendering, and the manager's acceptance/energy statistics.
// The manager keeps no history: around each call that moves the clock
// the simulator clips the schedule in force to the window the clock
// moved over (schedule.Executed). No such call re-plans, so the clip is
// exactly what ran.
package desim

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/predict"
	"adaptrm/internal/rm"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// EventKind classifies simulation events.
type EventKind int

const (
	// Arrival is a request arrival (admitted or rejected).
	Arrival EventKind = iota
	// Completion is a job finishing.
	Completion
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Arrival:
		return "arrival"
	case Completion:
		return "completion"
	default:
		return "?"
	}
}

// Event is one simulation occurrence.
type Event struct {
	// Time is the event time.
	Time float64
	// Kind classifies the event.
	Kind EventKind
	// App is the application of an arrival.
	App string
	// JobID identifies the job (0 for rejected arrivals).
	JobID int
	// Accepted reports the admission verdict of an arrival.
	Accepted bool
	// Missed reports a deadline violation of a completion.
	Missed bool
}

// Result is a finished simulation.
type Result struct {
	// Events is the time-ordered event log.
	Events []Event
	// Stats is the manager's final accounting.
	Stats rm.Stats
	// Timeline is the executed schedule, each job cut at its completion.
	Timeline []schedule.Segment
}

// Options tunes the simulation.
type Options struct {
	// Manager options are forwarded to the runtime manager.
	Manager rm.Options
	// Predictor, when non-nil, is fed every arrival (before the
	// admission decision) so that prediction-aware schedulers such as
	// predict.Scheduler can forecast upcoming load.
	Predictor predict.Predictor
}

// Simulate runs the trace against a fresh manager using the given
// scheduler.
func Simulate(trace []workload.Request, lib *opset.Library, plat platform.Platform, scheduler sched.Scheduler, opt Options) (*Result, error) {
	if len(trace) == 0 {
		return nil, errors.New("desim: empty trace")
	}
	reqs := append([]workload.Request(nil), trace...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At })
	mgr, err := rm.New(plat, lib, scheduler, opt.Manager)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	// advance runs one call that moves the clock and records what ran.
	advance := func(call func() ([]rm.Completion, error)) error {
		before, running, k := mgr.Now(), mgr.ActiveJobs(), mgr.CurrentSchedule()
		done, err := call()
		if err != nil {
			return err
		}
		finished := make(map[int]float64, len(done))
		for _, c := range done {
			finished[c.JobID] = c.At
			res.Events = append(res.Events, Event{
				Time: c.At, Kind: Completion, JobID: c.JobID, Missed: c.Missed,
			})
		}
		res.Timeline = append(res.Timeline, k.Executed(running, before, mgr.Now(), finished)...)
		return nil
	}
	for _, req := range reqs {
		if err := advance(func() ([]rm.Completion, error) { return mgr.AdvanceTo(req.At) }); err != nil {
			return nil, err
		}
		if opt.Predictor != nil {
			opt.Predictor.Observe(req.At, req.App)
		}
		// The clock already stands at req.At, so Submit completes nothing.
		id, accepted, _, err := mgr.Submit(req.At, req.App, req.Deadline)
		if err != nil {
			return nil, fmt.Errorf("desim: submit at %v: %w", req.At, err)
		}
		res.Events = append(res.Events, Event{
			Time: req.At, Kind: Arrival, App: req.App, JobID: id, Accepted: accepted,
		})
	}
	if err := advance(mgr.Drain); err != nil {
		return nil, err
	}
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].Time < res.Events[j].Time })
	res.Stats = mgr.Stats()
	return res, nil
}

// WriteLog renders the event log to w, one line per event.
func (r *Result) WriteLog(w io.Writer) {
	for _, e := range r.Events {
		switch e.Kind {
		case Arrival:
			verdict := "rejected"
			if e.Accepted {
				verdict = fmt.Sprintf("accepted as σ%d", e.JobID)
			}
			fmt.Fprintf(w, "t=%8.2f  arrival   %-30s %s\n", e.Time, e.App, verdict)
		case Completion:
			miss := ""
			if e.Missed {
				miss = "  DEADLINE MISS"
			}
			fmt.Fprintf(w, "t=%8.2f  complete  σ%d%s\n", e.Time, e.JobID, miss)
		}
	}
}

// Summary renders acceptance and energy statistics.
func (r *Result) Summary(w io.Writer) {
	s := r.Stats
	fmt.Fprintf(w, "requests: %d  accepted: %d  rejected: %d  completed: %d\n",
		s.Submitted, s.Accepted, s.Rejected, s.Completed)
	fmt.Fprintf(w, "deadline misses: %d\n", s.DeadlineMisses)
	fmt.Fprintf(w, "energy: %.2f J  scheduler activations: %d  scheduling time: %v\n",
		s.Energy, s.Activations, s.SchedulingTime)
}
