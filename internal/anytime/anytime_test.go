package anytime

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/schedule"
)

// task returns a single-job refinement task with the given incumbent
// bound; the motivational lambda1 job's exact optimum is 8.90 J.
func task(incumbent float64) Task {
	return Task{
		Device:    0,
		Jobs:      job.Set{{ID: 1, Table: motiv.Lambda1(), Deadline: 9, Remaining: 1}},
		Plat:      motiv.Platform(),
		Now:       0,
		Incumbent: incumbent,
	}
}

func TestTryStepRunsSearchAndHooks(t *testing.T) {
	var stored, swapped atomic.Int64
	r := New(Config{
		Store: func(_ Task, k *schedule.Schedule) {
			if k == nil {
				t.Error("Store called with nil schedule")
			}
			stored.Add(1)
		},
		Swap: func(_ Task, k *schedule.Schedule) {
			if stored.Load() == 0 {
				t.Error("Swap called before Store")
			}
			swapped.Add(1)
		},
	})
	if r.TryStep() {
		t.Error("TryStep on an empty queue reported work")
	}
	// A loose incumbent is beaten: both hooks fire.
	if !r.Enqueue(task(math.Inf(1))) {
		t.Fatal("enqueue refused")
	}
	// A tight incumbent (the exact optimum) is not beaten: no hooks.
	if !r.Enqueue(task(8.90)) {
		t.Fatal("enqueue refused")
	}
	for r.TryStep() {
	}
	if stored.Load() != 1 || swapped.Load() != 1 {
		t.Errorf("hooks fired store=%d swap=%d, want 1/1", stored.Load(), swapped.Load())
	}
	s := r.Stats()
	if s.Enqueued != 2 || s.Searches != 2 || s.Improved != 1 || s.NoImprovement != 1 {
		t.Errorf("stats = %+v", s)
	}
	r.Close()
}

func TestProbeSkips(t *testing.T) {
	r := New(Config{
		Probe: func(Task) bool { return true },
		Store: func(Task, *schedule.Schedule) { t.Error("Store despite probe skip") },
	})
	r.Enqueue(task(math.Inf(1)))
	for r.TryStep() {
	}
	if s := r.Stats(); s.Skipped != 1 || s.Searches != 0 {
		t.Errorf("stats = %+v, want 1 skipped, 0 searches", s)
	}
	r.Close()
}

func TestQueueBoundDropsNotBlocks(t *testing.T) {
	r := New(Config{Queue: 2})
	for i := 0; i < 5; i++ {
		r.Enqueue(task(math.Inf(1)))
	}
	if s := r.Stats(); s.Enqueued != 2 || s.Dropped != 3 {
		t.Errorf("stats = %+v, want 2 enqueued / 3 dropped", s)
	}
	if r.Pending() != 2 {
		t.Errorf("pending = %d, want 2", r.Pending())
	}
	r.Close()
}

// Close drains what background workers already hold, refuses further
// offers, and is idempotent.
func TestCloseSemantics(t *testing.T) {
	var improved atomic.Int64
	r := New(Config{Store: func(Task, *schedule.Schedule) { improved.Add(1) }})
	r.Start(2)
	for i := 0; i < 8; i++ {
		r.Enqueue(task(math.Inf(1)))
	}
	r.Close()
	r.Close() // idempotent
	if r.Enqueue(task(math.Inf(1))) {
		t.Error("enqueue accepted after close")
	}
	s := r.Stats()
	if got := s.Searches; got != 8 {
		t.Errorf("searches = %d, want all 8 drained by Close", got)
	}
	if improved.Load() != s.Improved {
		t.Errorf("store hook fired %d times for %d improvements", improved.Load(), s.Improved)
	}
	if s.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the post-close offer)", s.Dropped)
	}
}

// The Searched hook is how a search that found nothing is remembered: it
// fires once per such search, telling a proof (the tree ran out) from a
// give-up (the budget ran out), and stays silent for an improvement.
func TestSearchedHookReportsOutcome(t *testing.T) {
	for _, tc := range []struct {
		name      string
		budget    int64
		incumbent float64
		want      []bool // the hook's proved argument, per call
		stats     Stats
	}{
		{"improved", 0, math.Inf(1), nil,
			Stats{Enqueued: 1, Searches: 1, Improved: 1}},
		{"no improvement", 0, 8.90, []bool{true},
			Stats{Enqueued: 1, Searches: 1, NoImprovement: 1}},
		{"budget", 1, math.Inf(1), []bool{false},
			Stats{Enqueued: 1, Searches: 1, BudgetExhausted: 1}},
	} {
		var got []bool
		r := New(Config{
			Budget:   tc.budget,
			Searched: func(_ Task, proved bool) { got = append(got, proved) },
		})
		r.Enqueue(task(tc.incumbent))
		for r.TryStep() {
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: Searched calls = %v, want %v", tc.name, got, tc.want)
		}
		if s := r.Stats(); s != tc.stats {
			t.Errorf("%s: stats = %+v, want %+v", tc.name, s, tc.stats)
		}
		r.Close()
	}
}
