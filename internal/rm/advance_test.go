package rm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"adaptrm/internal/schedule"
)

// TestAdvanceToEpsilonClamp: a target inside the epsilon band just below
// the current time is tolerated — but must never move the clock
// backwards (the PR 4 clamp, here pinned in isolation).
func TestAdvanceToEpsilonClamp(t *testing.T) {
	m := newMgr(t, Options{})
	if _, err := m.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdvanceTo(5 - schedule.Eps/2); err != nil {
		t.Fatalf("epsilon-band target rejected: %v", err)
	}
	if now := m.Now(); now != 5 {
		t.Fatalf("clock regressed to %v after epsilon-band advance, want 5", now)
	}
	// Repeating the band target must stay idempotent.
	if _, err := m.AdvanceTo(5 - schedule.Eps/2); err != nil {
		t.Fatal(err)
	}
	if now := m.Now(); now != 5 {
		t.Fatalf("clock = %v after repeated band advance, want 5", now)
	}
	// Outside the band the regression is an error and the clock holds.
	if _, err := m.AdvanceTo(4.9); !errors.Is(err, ErrTimeBackwards) {
		t.Fatalf("regression target: %v, want ErrTimeBackwards", err)
	}
	if now := m.Now(); now != 5 {
		t.Fatalf("clock = %v after rejected regression, want 5", now)
	}
}

// TestAdvanceToEpsilonClampWithTraffic: the band tolerance also holds
// mid-schedule — a submission at t followed by an epsilon-earlier
// advance must not regress the clock or corrupt accounting.
func TestAdvanceToEpsilonClampWithTraffic(t *testing.T) {
	m := newMgr(t, Options{})
	if _, ok, _, err := m.Submit(1, "lambda1", 10); err != nil || !ok {
		t.Fatalf("λ1: %v", err)
	}
	if _, err := m.AdvanceTo(1 - schedule.Eps/2); err != nil {
		t.Fatalf("band advance after submit: %v", err)
	}
	if now := m.Now(); now != 1 {
		t.Fatalf("clock = %v, want 1", now)
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Completed != 1 || st.DeadlineMisses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExecutedTimelineTruncation: a job finishing inside an executed
// slice must not be shown running past its completion — the clipped
// timeline is cut at each distinct finish time (pinned in isolation via
// one long advance over staggered completions).
func TestExecutedTimelineTruncation(t *testing.T) {
	m := newMgr(t, Options{})
	if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || !ok {
		t.Fatalf("λ1: %v", err)
	}
	if _, ok, _, err := m.Submit(1, "lambda2", 5); err != nil || !ok {
		t.Fatalf("λ2: %v", err)
	}
	// One giant advance spans both completions: the clipped timeline
	// must still stop each job at its own finish.
	done, tl := clipped(t, m, func() ([]Completion, error) { return m.AdvanceTo(100) })
	if len(done) != 2 {
		t.Fatalf("completions = %+v, want 2", done)
	}
	finish := make(map[int]float64, len(done))
	last := 0.0
	for _, c := range done {
		finish[c.JobID] = c.At
		if c.At > last {
			last = c.At
		}
	}
	if len(tl) == 0 {
		t.Fatal("empty executed timeline")
	}
	prevEnd := math.Inf(-1)
	for i, seg := range tl {
		if seg.End <= seg.Start {
			t.Fatalf("segment %d degenerate: [%v, %v]", i, seg.Start, seg.End)
		}
		if seg.Start < prevEnd-schedule.Eps {
			t.Fatalf("segment %d overlaps predecessor: start %v < prev end %v", i, seg.Start, prevEnd)
		}
		prevEnd = seg.End
		for _, p := range seg.Placements {
			f, known := finish[p.JobID]
			if !known {
				t.Fatalf("segment %d places unknown job %d", i, p.JobID)
			}
			if seg.End > f+schedule.Eps {
				t.Errorf("job %d shown running in [%v, %v] past its completion %v", p.JobID, seg.Start, seg.End, f)
			}
		}
	}
	// The timeline ends exactly at the last completion, not at the
	// advance target.
	if end := tl[len(tl)-1].End; math.Abs(end-last) > schedule.Eps {
		t.Errorf("timeline ends at %v, want last completion %v", end, last)
	}
	// Each job's recorded span ends exactly at its completion time.
	for id, f := range finish {
		span := math.Inf(-1)
		for _, seg := range tl {
			for _, p := range seg.Placements {
				if p.JobID == id && seg.End > span {
					span = seg.End
				}
			}
		}
		if math.Abs(span-f) > schedule.Eps {
			t.Errorf("job %d recorded until %v, completed at %v", id, span, f)
		}
	}
}

// clipped runs one call that may move m's clock and returns its
// completions together with what ran meanwhile: the schedule in force
// before the call, clipped to the window the clock moved over and cut
// at the returned completions.
func clipped(t *testing.T, m *Manager, call func() ([]Completion, error)) ([]Completion, []schedule.Segment) {
	t.Helper()
	before, running, k := m.Now(), m.ActiveJobs(), m.CurrentSchedule()
	done, err := call()
	if err != nil {
		t.Fatal(err)
	}
	finished := make(map[int]float64, len(done))
	for _, c := range done {
		finished[c.JobID] = c.At
	}
	return done, k.Executed(running, before, m.Now(), finished)
}

// TestEventsMatchClippedTimeline: the schedule changes only inside the
// calls that decide, so clipping the schedule in force around every
// call that moves the clock reproduces what ran. Each job's JobStarted
// time is where its first clipped placement begins and its
// JobCompleted time where its last one ends, under seeded traffic with
// cancellations.
func TestEventsMatchClippedTimeline(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m := newMgr(t, Options{})
		var evs []Event
		m.SetEventSink(func(ev Event) { evs = append(evs, ev) })
		var tl []schedule.Segment
		record := func(call func() ([]Completion, error)) {
			_, segs := clipped(t, m, call)
			tl = append(tl, segs...)
		}
		rng := rand.New(rand.NewSource(seed))
		apps := []string{"lambda1", "lambda2"}
		now := 0.0
		var ids []int
		for i := 0; i < 80; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				app, deadline := apps[rng.Intn(len(apps))], now+1+rng.Float64()*9
				record(func() ([]Completion, error) {
					id, ok, done, err := m.Submit(now, app, deadline)
					if ok {
						ids = append(ids, id)
					}
					return done, err
				})
			case 2:
				now += rng.Float64() * 3
				record(func() ([]Completion, error) { return m.AdvanceTo(now) })
			case 3:
				if len(ids) > 0 {
					_ = m.Cancel(ids[rng.Intn(len(ids))])
				}
			}
		}
		record(m.Drain)

		type span struct{ start, end float64 }
		ran := map[int]*span{}
		for _, seg := range tl {
			for _, p := range seg.Placements {
				if s := ran[p.JobID]; s == nil {
					ran[p.JobID] = &span{seg.Start, seg.End}
				} else {
					s.end = seg.End
				}
			}
		}
		started, completed := 0, 0
		for _, ev := range evs {
			switch ev.Type {
			case EventJobStarted:
				started++
				if s := ran[ev.JobID]; s == nil || s.start != ev.At {
					t.Errorf("seed %d: job %d started at %v, clipped timeline %+v", seed, ev.JobID, ev.At, s)
				}
			case EventJobCompleted:
				completed++
				if s := ran[ev.JobID]; s == nil || s.end != ev.At {
					t.Errorf("seed %d: job %d completed at %v, clipped timeline %+v", seed, ev.JobID, ev.At, s)
				}
			}
		}
		if started != len(ran) || completed == 0 {
			t.Errorf("seed %d: %d jobs ran, %d started events, %d completed events", seed, len(ran), started, completed)
		}
	}
}
