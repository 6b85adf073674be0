package rm

import (
	"errors"
	"math"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
)

func newMgr(t *testing.T, opt Options) *Manager {
	t.Helper()
	m, err := New(motiv.Platform(), motiv.Library(), core.New(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	plat := motiv.Platform()
	if _, err := New(plat, nil, core.New(), Options{}); err == nil {
		t.Error("nil library accepted")
	}
	if _, err := New(plat, opset.NewLibrary(), core.New(), Options{}); err == nil {
		t.Error("empty library accepted")
	}
	if _, err := New(plat, motiv.Library(), nil, Options{}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(platform.Platform{}, motiv.Library(), core.New(), Options{}); err == nil {
		t.Error("invalid platform accepted")
	}
}

// Replay the motivational story online: λ1 at t=0 (deadline 9), λ2 at
// t=1 (deadline 5). The manager must admit both and end with total energy
// 14.63 J (Fig. 1c), zero deadline misses.
func TestMotivationalScenarioOnline(t *testing.T) {
	m := newMgr(t, Options{})
	id1, ok, _, err := m.Submit(0, "lambda1", 9)
	if err != nil || !ok {
		t.Fatalf("λ1 rejected: %v", err)
	}
	id2, ok, _, err := m.Submit(1, "lambda2", 5)
	if err != nil || !ok {
		t.Fatalf("λ2 rejected: %v", err)
	}
	if id1 == id2 {
		t.Fatal("duplicate job IDs")
	}
	done, err := m.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	st := m.Stats()
	if st.DeadlineMisses != 0 {
		t.Errorf("deadline misses = %d", st.DeadlineMisses)
	}
	if math.Abs(st.Energy-14.63) > 0.01 {
		t.Errorf("total energy = %.3f, want 14.63 (Fig. 1c)", st.Energy)
	}
	if st.Accepted != 2 || st.Rejected != 0 || st.Completed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// Scenario S2 online with a fixed-mapping-style rejection is covered in
// the fixedmap package; here the adaptive manager must admit σ2 even
// with deadline 4.
func TestS2AdmittedOnline(t *testing.T) {
	m := newMgr(t, Options{})
	if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || !ok {
		t.Fatalf("λ1: ok=%v err=%v", ok, err)
	}
	if _, ok, _, err := m.Submit(1, "lambda2", 4); err != nil || !ok {
		t.Fatalf("λ2 with deadline 4: ok=%v err=%v", ok, err)
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().DeadlineMisses != 0 {
		t.Error("deadline missed in S2")
	}
}

// An impossible request must be rejected while admitted jobs continue
// untouched.
func TestRejectionKeepsExistingJobs(t *testing.T) {
	m := newMgr(t, Options{})
	if _, ok, _, _ := m.Submit(0, "lambda1", 9); !ok {
		t.Fatal("λ1 rejected")
	}
	// λ2 with an absurd deadline.
	_, ok, _, err := m.Submit(1, "lambda2", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impossible request admitted")
	}
	st := m.Stats()
	if st.Rejected != 1 {
		t.Errorf("rejected = %d", st.Rejected)
	}
	// λ1 still completes in time.
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().DeadlineMisses != 0 || m.Stats().Completed != 1 {
		t.Errorf("stats after drain = %+v", m.Stats())
	}
}

func TestSubmitErrors(t *testing.T) {
	m := newMgr(t, Options{})
	if _, _, _, err := m.Submit(0, "nope", 9); err == nil {
		t.Error("unknown app accepted")
	}
	if _, _, _, err := m.Submit(5, "lambda1", 4); err == nil {
		t.Error("deadline before arrival accepted")
	}
	if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || !ok {
		t.Fatal("setup failed")
	}
	if _, err := m.AdvanceTo(-1); err == nil {
		t.Error("time travel accepted")
	}
}

// Progress accounting: advancing halfway through a single-job schedule
// consumes proportional energy and leaves the job active.
func TestAdvanceAccounting(t *testing.T) {
	m := newMgr(t, Options{})
	if _, ok, _, _ := m.Submit(0, "lambda1", 9); !ok {
		t.Fatal("rejected")
	}
	// MMKP-MDF picks 2L1B (τ=5.3, ξ=8.9).
	done, err := m.AdvanceTo(2.65)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatal("job finished too early")
	}
	st := m.Stats()
	if math.Abs(st.Energy-8.90/2) > 1e-6 {
		t.Errorf("half-run energy = %v, want %v", st.Energy, 8.90/2)
	}
	jobs := m.ActiveJobs()
	if len(jobs) != 1 || math.Abs(jobs[0].Remaining-0.5) > 1e-9 {
		t.Errorf("remaining = %+v", jobs)
	}
	// Completion lands at 5.3.
	next, ok := m.NextCompletion()
	if !ok || math.Abs(next-5.3) > 1e-9 {
		t.Errorf("next completion = %v, want 5.3", next)
	}
}

// CurrentSchedule must return a snapshot: mutating it cannot corrupt the
// manager's active plan (fleet shards snapshot mid-traffic).
func TestCurrentScheduleIsDeepCopy(t *testing.T) {
	m := newMgr(t, Options{})
	if _, ok, _, _ := m.Submit(0, "lambda1", 9); !ok {
		t.Fatal("λ1 rejected")
	}
	snap := m.CurrentSchedule()
	if snap.IsEmpty() {
		t.Fatal("empty schedule for an admitted job")
	}
	snap.Segments[0].Placements[0].Point = -1
	snap.Segments[0].End = -5
	snap.Segments = snap.Segments[:0]
	cur := m.CurrentSchedule()
	if cur.IsEmpty() || cur.Segments[0].End < 0 || cur.Segments[0].Placements[0].Point == -1 {
		t.Fatal("mutating the snapshot corrupted the manager's schedule")
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitSchedulerFailureIsError: only sched.ErrInfeasible is an
// admission verdict; any other scheduler failure must surface as an
// error and stay out of the Submitted/Rejected counters.
func TestSubmitSchedulerFailureIsError(t *testing.T) {
	boom := errors.New("boom")
	bad := sched.Func{ID: "bad", F: func(job.Set, platform.Platform, float64) (*schedule.Schedule, error) {
		return nil, boom
	}}
	m, err := New(motiv.Platform(), motiv.Library(), bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, accepted, _, err := m.Submit(0, "lambda1", 9)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the scheduler failure", err)
	}
	if accepted {
		t.Error("failed solve reported as accepted")
	}
	st := m.Stats()
	if st.Submitted != 0 || st.Rejected != 0 {
		t.Errorf("counters absorbed a scheduler failure: %+v", st)
	}
	// Infeasibility stays a clean rejection.
	infeasible := sched.Func{ID: "never", F: func(job.Set, platform.Platform, float64) (*schedule.Schedule, error) {
		return nil, sched.ErrInfeasible
	}}
	m2, err := New(motiv.Platform(), motiv.Library(), infeasible, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, accepted, _, err := m2.Submit(0, "lambda1", 9); err != nil || accepted {
		t.Fatalf("infeasible: accepted=%v err=%v, want clean rejection", accepted, err)
	}
	if st := m2.Stats(); st.Submitted != 1 || st.Rejected != 1 {
		t.Errorf("rejection counters: %+v", st)
	}
}
