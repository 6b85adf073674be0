package rm

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"adaptrm/internal/motiv"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// stripWallClock removes the fields a batched activation legitimately
// changes (fewer scheduler invocations, different wall time) so the
// remaining statistics can be compared byte-for-byte.
func stripWallClock(s Stats) Stats {
	s.Activations = 0
	s.SchedulingTime = 0
	return s
}

// submitSequential replays a batch through individual Submit calls at
// the same time, returning per-request verdicts shaped like
// SubmitBatch's.
func submitSequential(m *Manager, t float64, reqs []Request) ([]Verdict, []Completion, error) {
	verdicts := make([]Verdict, len(reqs))
	var first []Completion
	for i, r := range reqs {
		id, ok, done, err := m.Submit(t, r.App, r.Deadline)
		if i == 0 {
			first = done
		}
		switch {
		case errors.Is(err, ErrUnknownApp), errors.Is(err, ErrBadDeadline):
			verdicts[i].Err = err
		case err != nil:
			if errors.Is(err, ErrTimeBackwards) {
				return nil, done, err
			}
			verdicts[i].Err = err // scheduler hard failure
		default:
			verdicts[i].JobID, verdicts[i].Accepted = id, ok
		}
	}
	return verdicts, first, nil
}

// sameVerdicts compares verdict sequences by job id, acceptance and
// error identity (sentinel match).
func sameVerdicts(t *testing.T, got, want []Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("verdict count: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].JobID != want[i].JobID || got[i].Accepted != want[i].Accepted {
			t.Errorf("verdict %d: got %+v, want %+v", i, got[i], want[i])
		}
		gs, ws := got[i].Err, want[i].Err
		if (gs == nil) != (ws == nil) {
			t.Errorf("verdict %d error: got %v, want %v", i, gs, ws)
			continue
		}
		for _, sentinel := range []error{ErrUnknownApp, ErrBadDeadline} {
			if errors.Is(gs, sentinel) != errors.Is(ws, sentinel) {
				t.Errorf("verdict %d error class: got %v, want %v", i, gs, ws)
			}
		}
	}
}

// batchScript is one deterministic interaction step.
type batchScript struct {
	t    float64
	reqs []Request
}

// runScript drives a script through either the batch or the sequential
// path on a fresh manager and returns the manager, the verdict log and
// the timeline the steps executed.
func runScript(t *testing.T, script []batchScript, opt Options, batched bool) (*Manager, [][]Verdict, []schedule.Segment) {
	t.Helper()
	m := newMgr(t, opt)
	var log [][]Verdict
	var tl []schedule.Segment
	for _, s := range script {
		var vs []Verdict
		_, segs := clipped(t, m, func() (done []Completion, err error) {
			if batched {
				vs, done, err = m.SubmitBatch(s.t, s.reqs)
			} else {
				vs, done, err = submitSequential(m, s.t, s.reqs)
			}
			return done, err
		})
		log = append(log, vs)
		tl = append(tl, segs...)
	}
	return m, log, tl
}

// TestSubmitBatchEquivalentToSequential drives mixed scripts — feasible
// bursts, over-subscribed bursts forcing the fallback, invalid items —
// through SubmitBatch and sequential Submit, asserting identical
// verdict sequences, job ids, admission statistics (minus activation
// counts), final schedules and executed timelines.
func TestSubmitBatchEquivalentToSequential(t *testing.T) {
	scripts := map[string][]batchScript{
		"feasible-burst": {
			{0, []Request{{"lambda1", 9}, {"lambda2", 9}}},
			{12, []Request{{"lambda2", 20}, {"lambda1", 25}}},
		},
		"oversubscribed-burst": {
			// One λ1 plus three λ2 by t=9 over-subscribes the 2L2B
			// device: the joint solve fails and the fallback decides one
			// by one, rejecting the overflow.
			{0, []Request{{"lambda1", 9}, {"lambda2", 9}, {"lambda2", 9}, {"lambda2", 9}}},
			{30, []Request{{"lambda1", 45}}},
		},
		"invalid-items": {
			{0, []Request{{"lambda1", 9}, {"nope", 9}, {"lambda2", 0}, {"lambda2", 8}}},
			{10, []Request{{"ghost", 12}, {"also-ghost", 12}}},
		},
		"singleton-batches": {
			{0, []Request{{"lambda1", 9}}},
			{1, []Request{{"lambda2", 5}}},
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			seqM, seqLog, seqTL := runScript(t, script, Options{}, false)
			batM, batLog, batTL := runScript(t, script, Options{}, true)
			for i := range seqLog {
				sameVerdicts(t, batLog[i], seqLog[i])
			}
			if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
				t.Errorf("stats diverged:\nbatch %+v\nseq   %+v", got, want)
			}
			if got, want := batM.CurrentSchedule(), seqM.CurrentSchedule(); !reflect.DeepEqual(got, want) {
				t.Errorf("final schedules diverged:\nbatch %+v\nseq   %+v", got, want)
			}
			if !reflect.DeepEqual(batTL, seqTL) {
				t.Errorf("executed timelines diverged:\nbatch %+v\nseq   %+v", batTL, seqTL)
			}
			// Draining both must finish the same jobs along the same
			// timeline with the same energy.
			sd, stl := clipped(t, seqM, seqM.Drain)
			bd, btl := clipped(t, batM, batM.Drain)
			if !reflect.DeepEqual(sd, bd) {
				t.Errorf("drain completions diverged:\nbatch %+v\nseq   %+v", bd, sd)
			}
			if !reflect.DeepEqual(stl, btl) {
				t.Errorf("drained timelines diverged:\nbatch %+v\nseq   %+v", btl, stl)
			}
			if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
				t.Errorf("post-drain stats diverged:\nbatch %+v\nseq   %+v", got, want)
			}
		})
	}
}

// TestSubmitBatchEquivalenceOnTrace pins the equivalence on a seeded
// Poisson trace whose arrivals are grouped into same-time bursts.
func TestSubmitBatchEquivalenceOnTrace(t *testing.T) {
	base, err := workload.Trace(motiv.Library(), workload.TraceParams{Rate: 0.3, Horizon: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Round arrivals down to 10-second slots so several requests share
	// each batch time (deadlines keep their spread).
	var script []batchScript
	for _, r := range base {
		slot := math.Floor(r.At/10) * 10
		if n := len(script); n > 0 && script[n-1].t == slot {
			script[n-1].reqs = append(script[n-1].reqs, Request{App: r.App, Deadline: r.Deadline})
			continue
		}
		script = append(script, batchScript{t: slot, reqs: []Request{{App: r.App, Deadline: r.Deadline}}})
	}
	seqM, seqLog, _ := runScript(t, script, Options{}, false)
	batM, batLog, _ := runScript(t, script, Options{}, true)
	for i := range seqLog {
		sameVerdicts(t, batLog[i], seqLog[i])
	}
	if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
		t.Fatalf("stats diverged:\nbatch %+v\nseq   %+v", got, want)
	}
	if batM.Stats().Activations > seqM.Stats().Activations {
		t.Errorf("batching increased activations: %d > %d",
			batM.Stats().Activations, seqM.Stats().Activations)
	}
	if _, err := seqM.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := batM.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
		t.Fatalf("post-drain stats diverged:\nbatch %+v\nseq   %+v", got, want)
	}
}

// TestSubmitBatchFastPathActivations pins the headline saving: a
// feasible k-request batch costs one activation; an infeasible one
// falls back to k trial solves after the failed joint solve.
func TestSubmitBatchFastPathActivations(t *testing.T) {
	m := newMgr(t, Options{})
	vs, _, err := m.SubmitBatch(0, []Request{{"lambda1", 30}, {"lambda2", 30}, {"lambda1", 40}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if !v.Accepted || v.Err != nil {
			t.Fatalf("verdict %d: %+v, want accepted", i, v)
		}
	}
	if got := m.Stats().Activations; got != 1 {
		t.Errorf("feasible batch cost %d activations, want 1", got)
	}
	if ids := []int{vs[0].JobID, vs[1].JobID, vs[2].JobID}; ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("job ids %v, want sequential 1,2,3", ids)
	}

	// Over-subscribe: the joint solve fails, then each of the 4 requests
	// gets its own trial solve (1 + 4 activations on a fresh manager).
	m2 := newMgr(t, Options{})
	vs2, _, err := m2.SubmitBatch(0, []Request{{"lambda1", 9}, {"lambda2", 9}, {"lambda2", 9}, {"lambda2", 9}})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, v := range vs2 {
		if v.Accepted {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(vs2) {
		t.Fatalf("fallback burst: %d/%d accepted, want a proper split", accepted, len(vs2))
	}
	if got := m2.Stats().Activations; got != 1+len(vs2) {
		t.Errorf("fallback batch cost %d activations, want %d", got, 1+len(vs2))
	}
}

// TestSubmitBatchEmptyAndInvalid: an all-invalid batch decides every
// item without touching the clock or the counters, matching sequential
// Submit error semantics; an empty batch is a no-op.
func TestSubmitBatchEmptyAndInvalid(t *testing.T) {
	m := newMgr(t, Options{})
	if _, err := m.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	vs, done, err := m.SubmitBatch(5, nil)
	if err != nil || len(vs) != 0 || len(done) != 0 {
		t.Fatalf("empty batch: %v %v %v", vs, done, err)
	}
	vs, _, err = m.SubmitBatch(7, []Request{{"nope", 9}, {"lambda1", 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(vs[0].Err, ErrUnknownApp) || !errors.Is(vs[1].Err, ErrBadDeadline) {
		t.Fatalf("verdicts %+v, want unknown-app and bad-deadline", vs)
	}
	if now := m.Now(); now != 5 {
		t.Errorf("all-invalid batch moved the clock to %v", now)
	}
	if st := m.Stats(); st.Submitted != 0 || st.Activations != 0 {
		t.Errorf("all-invalid batch touched counters: %+v", st)
	}
}

// TestAdvanceToClampsClock: a target inside the epsilon band below the
// current time is accepted (per-device streams may carry such jitter)
// but must never move the clock backwards.
func TestAdvanceToClampsClock(t *testing.T) {
	m := newMgr(t, Options{})
	if _, err := m.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdvanceTo(10 - schedule.Eps/2); err != nil {
		t.Fatalf("epsilon-band advance rejected: %v", err)
	}
	if now := m.Now(); now != 10 {
		t.Errorf("clock regressed to %v, want clamp at 10", now)
	}
	if _, err := m.AdvanceTo(10 - 2*schedule.Eps); !errors.Is(err, ErrTimeBackwards) {
		t.Errorf("genuine time travel accepted: %v", err)
	}
}

// TestExecutedTimelineTruncatedAtCompletion: a job finishing inside an
// executed slice must not be recorded as running past its completion
// time — the timeline clipped from the schedule in force is cut at each
// distinct completion.
func TestExecutedTimelineTruncatedAtCompletion(t *testing.T) {
	m := newMgr(t, Options{})
	id1, ok, _, err := m.Submit(0, "lambda1", 9)
	if err != nil || !ok {
		t.Fatal("λ1 rejected")
	}
	id2, ok, _, err := m.Submit(1, "lambda2", 5)
	if err != nil || !ok {
		t.Fatal("λ2 rejected")
	}
	// Jump far past both completions in one advance: a clip that ignored
	// completions would stretch both jobs to the last segment end.
	done, tl := clipped(t, m, func() ([]Completion, error) { return m.AdvanceTo(50) })
	finish := map[int]float64{}
	for _, c := range done {
		finish[c.JobID] = c.At
	}
	if len(finish) != 2 {
		t.Fatalf("completions %+v, want both jobs", done)
	}
	last := map[int]float64{}
	for _, seg := range tl {
		if seg.End <= seg.Start {
			t.Errorf("degenerate executed segment %+v", seg)
		}
		for _, p := range seg.Placements {
			if seg.End > last[p.JobID] {
				last[p.JobID] = seg.End
			}
		}
	}
	for _, id := range []int{id1, id2} {
		if math.Abs(last[id]-finish[id]) > 1e-6 {
			t.Errorf("job %d recorded until %v, finished at %v", id, last[id], finish[id])
		}
	}
}
