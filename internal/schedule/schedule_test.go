package schedule

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/platform"
)

// fig1c builds the adaptive schedule of Fig. 1(c) from t=1:
// σ2 on 2L1B during [1,4), then σ1 on 2L1B during [4,8.3).
func fig1c(t *testing.T) (*Schedule, job.Set) {
	t.Helper()
	jobs := job.Set(motiv.ScenarioS1AtT1())
	l1 := jobs.ByID(1).Table
	l2 := jobs.ByID(2).Table
	p1 := l1.ByAlloc(platform.Alloc{2, 1})
	p2 := l2.ByAlloc(platform.Alloc{2, 1})
	if len(p1) != 1 || len(p2) != 1 {
		t.Fatal("missing 2L1B points")
	}
	rem := 5.3 * motiv.Rho1AtT1
	k := &Schedule{Segments: []Segment{
		{Start: 1, End: 4, Placements: []Placement{{JobID: 2, Point: p2[0]}}},
		{Start: 4, End: 4 + rem, Placements: []Placement{{JobID: 1, Point: p1[0]}}},
	}}
	return k, jobs
}

func TestFig1cEnergyAndValidation(t *testing.T) {
	k, jobs := fig1c(t)
	plat := motiv.Platform()
	if err := k.Validate(plat, jobs, 1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Energy from t=1 plus σ1's [0,1) consumption must equal 14.63 J.
	total := k.Energy(jobs) + motiv.EnergyBeforeT1
	if math.Abs(total-14.63) > 0.01 {
		t.Errorf("Fig 1(c) energy = %.3f, want 14.63", total)
	}
	if got := k.FinishTime(2); math.Abs(got-4) > Eps {
		t.Errorf("σ2 finish = %v, want 4", got)
	}
	if got := k.FinishTime(1); math.Abs(got-(4+5.3*motiv.Rho1AtT1)) > Eps {
		t.Errorf("σ1 finish = %v", got)
	}
	if got := k.FinishTime(99); !math.IsNaN(got) {
		t.Errorf("unknown job finish = %v, want NaN", got)
	}
	if got := k.ExecutedFraction(1, jobs); math.Abs(got-motiv.Rho1AtT1) > 1e-9 {
		t.Errorf("σ1 executed fraction = %v, want %v", got, motiv.Rho1AtT1)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	plat := motiv.Platform()
	base, jobs := fig1c(t)

	// 2b: resource over-subscription.
	k := base.Clone()
	l2 := jobs.ByID(2).Table
	p22 := l2.ByAlloc(platform.Alloc{2, 2})[0]
	k.Segments[1].Placements = append(k.Segments[1].Placements, Placement{JobID: 2, Point: p22})
	if err := k.Validate(plat, jobs, 1); err == nil || !strings.Contains(err.Error(), "2") {
		t.Errorf("over-capacity schedule accepted: %v", err)
	}

	// 2c: duplicate job in one segment.
	k = base.Clone()
	k.Segments[0].Placements = append(k.Segments[0].Placements, k.Segments[0].Placements[0])
	if err := k.Validate(plat, jobs, 1); err == nil {
		t.Error("duplicate placement accepted")
	}

	// 2d: wrong executed fraction (truncate σ1's segment).
	k = base.Clone()
	k.Segments[1].End -= 1
	if err := k.Validate(plat, jobs, 1); err == nil {
		t.Error("under-executed schedule accepted")
	}

	// 2e: deadline violation (σ2 deadline 5; shift segments late).
	k = base.Clone()
	k.Segments[0].End = 5.5
	k.Segments[1].Start = 5.5
	k.Segments[1].End += 1.5
	if err := k.Validate(plat, jobs, 1); err == nil {
		t.Error("late schedule accepted")
	}

	// Structure: gap between segments.
	k = base.Clone()
	k.Segments[1].Start += 0.5
	if err := k.Validate(plat, jobs, 1); err == nil {
		t.Error("gapped schedule accepted")
	}

	// Structure: wrong start.
	k = base.Clone()
	if err := k.Validate(plat, jobs, 0); err == nil {
		t.Error("wrong t0 accepted")
	}

	// Unknown job reference.
	k = base.Clone()
	k.Segments[0].Placements[0].JobID = 42
	if err := k.Validate(plat, jobs, 1); err == nil {
		t.Error("unknown job accepted")
	}

	// Point index out of range.
	k = base.Clone()
	k.Segments[0].Placements[0].Point = 99
	if err := k.Validate(plat, jobs, 1); err == nil {
		t.Error("bad point index accepted")
	}

	// Empty schedule with jobs.
	k = &Schedule{}
	if err := k.Validate(plat, jobs, 1); err == nil {
		t.Error("empty schedule accepted for non-empty job set")
	}
	if err := k.Validate(plat, nil, 1); err != nil {
		t.Errorf("empty schedule for no jobs should validate: %v", err)
	}
}

func TestSplit(t *testing.T) {
	k, jobs := fig1c(t)
	if err := k.Split(0, 2.5); err != nil {
		t.Fatal(err)
	}
	if len(k.Segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(k.Segments))
	}
	if k.Segments[0].End != 2.5 || k.Segments[1].Start != 2.5 {
		t.Errorf("split boundaries wrong: %v %v", k.Segments[0], k.Segments[1])
	}
	if err := k.Validate(motiv.Platform(), jobs, 1); err != nil {
		t.Errorf("split schedule invalid: %v", err)
	}
	// Energy is invariant under splitting.
	orig, _ := fig1c(t)
	if math.Abs(k.Energy(jobs)-orig.Energy(jobs)) > 1e-9 {
		t.Error("split changed energy")
	}
	// Bad split points.
	if err := k.Split(0, 1); err == nil {
		t.Error("split at boundary accepted")
	}
	if err := k.Split(99, 2); err == nil {
		t.Error("split at bad index accepted")
	}
}

func TestNormalizeMergesIdenticalNeighbors(t *testing.T) {
	k, jobs := fig1c(t)
	orig := k.Clone()
	if err := k.Split(0, 2.0); err != nil {
		t.Fatal(err)
	}
	if err := k.Split(2, 5.0); err != nil {
		t.Fatal(err)
	}
	k.Normalize()
	if len(k.Segments) != 2 {
		t.Fatalf("Normalize left %d segments, want 2", len(k.Segments))
	}
	if math.Abs(k.Energy(jobs)-orig.Energy(jobs)) > 1e-9 {
		t.Error("Normalize changed energy")
	}
}

func TestAppend(t *testing.T) {
	k := &Schedule{}
	if err := k.Append(Segment{Start: 0, End: 1, Placements: []Placement{{1, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Append(Segment{Start: 1, End: 2, Placements: []Placement{{1, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Append(Segment{Start: 5, End: 6}); err == nil {
		t.Error("gapped append accepted")
	}
	if err := k.Append(Segment{Start: 2, End: 2}); err == nil {
		t.Error("zero-length append accepted")
	}
}

func TestUsageAndHorizon(t *testing.T) {
	k, jobs := fig1c(t)
	u := k.Segments[0].Usage(jobs, 2)
	if !u.Equal(platform.Alloc{2, 1}) {
		t.Errorf("Usage = %v, want 2L1B", u)
	}
	if got := k.Horizon(1); math.Abs(got-(4+5.3*motiv.Rho1AtT1)) > Eps {
		t.Errorf("Horizon = %v", got)
	}
	empty := &Schedule{}
	if got := empty.Horizon(3); got != 3 {
		t.Errorf("empty Horizon = %v, want 3", got)
	}
	if !empty.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestString(t *testing.T) {
	k, _ := fig1c(t)
	s := k.String()
	if !strings.Contains(s, "σ2") || !strings.Contains(s, "σ1") {
		t.Errorf("String missing jobs: %q", s)
	}
}

// TestExecutedClipsAndCuts: only the window the clock moved over is
// kept, jobs no longer running are dropped, and a job completing inside
// a segment is cut there while the others run on.
func TestExecutedClipsAndCuts(t *testing.T) {
	k := &Schedule{Segments: []Segment{
		{Start: 0, End: 4, Placements: []Placement{{JobID: 1}, {JobID: 2}, {JobID: 3, Point: 1}}},
		{Start: 4, End: 8, Placements: []Placement{{JobID: 2}, {JobID: 3, Point: 2}}},
	}}
	running := job.Set{{ID: 2}, {ID: 3}} // job 1 finished before the window
	got := k.Executed(running, 2, 7, map[int]float64{3: 3})
	want := []Segment{
		{Start: 2, End: 3, Placements: []Placement{{JobID: 2}, {JobID: 3, Point: 1}}},
		{Start: 3, End: 4, Placements: []Placement{{JobID: 2}}},
		{Start: 4, End: 7, Placements: []Placement{{JobID: 2}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Executed =\n %+v\nwant\n %+v", got, want)
	}
}
