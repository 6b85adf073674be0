package desim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/lagrange"
	"adaptrm/internal/motiv"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/workload"
)

// The motivational trace through the simulator: both requests admitted,
// Fig. 1(c) energy, clean event log.
func TestMotivationalTrace(t *testing.T) {
	trace := []workload.Request{
		{At: 0, App: "lambda1", Deadline: 9},
		{At: 1, App: "lambda2", Deadline: 5},
	}
	res, err := Simulate(trace, motiv.Library(), motiv.Platform(), core.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accepted != 2 || res.Stats.DeadlineMisses != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if math.Abs(res.Stats.Energy-14.63) > 0.01 {
		t.Errorf("energy = %.3f, want 14.63", res.Stats.Energy)
	}
	arrivals, completions := 0, 0
	for _, e := range res.Events {
		switch e.Kind {
		case Arrival:
			arrivals++
		case Completion:
			completions++
		}
	}
	if arrivals != 2 || completions != 2 {
		t.Errorf("events: %d arrivals, %d completions", arrivals, completions)
	}
	// Time-ordered log.
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i-1].Time > res.Events[i].Time+1e-9 {
			t.Fatal("event log not time-ordered")
		}
	}
	if len(res.Timeline) == 0 {
		t.Error("no executed timeline")
	}
	var log, sum bytes.Buffer
	res.WriteLog(&log)
	res.Summary(&sum)
	if !strings.Contains(log.String(), "accepted as σ1") {
		t.Errorf("log missing admission:\n%s", log.String())
	}
	if !strings.Contains(sum.String(), "deadline misses: 0") {
		t.Errorf("summary missing misses:\n%s", sum.String())
	}
}

// A long random trace must run cleanly with zero deadline misses for any
// scheduler (admitted jobs are guaranteed by construction), and the
// adaptive manager must accept at least as many requests as it rejects
// under moderate load.
func TestRandomTraceInvariants(t *testing.T) {
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Trace(lib, workload.TraceParams{Rate: 0.15, Horizon: 300, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 10 {
		t.Skip("trace too short for meaningful assertions")
	}
	for _, s := range []sched.Scheduler{core.New(), lagrange.New()} {
		res, err := Simulate(trace, lib, plat, s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Stats.DeadlineMisses != 0 {
			t.Errorf("%s: %d deadline misses", s.Name(), res.Stats.DeadlineMisses)
		}
		if res.Stats.Submitted != len(trace) {
			t.Errorf("%s: submitted %d of %d", s.Name(), res.Stats.Submitted, len(trace))
		}
		if res.Stats.Completed != res.Stats.Accepted {
			t.Errorf("%s: %d completed of %d accepted", s.Name(), res.Stats.Completed, res.Stats.Accepted)
		}
		if res.Stats.Energy <= 0 {
			t.Errorf("%s: no energy accounted", s.Name())
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(nil, motiv.Library(), motiv.Platform(), core.New(), Options{}); err == nil {
		t.Error("empty trace accepted")
	}
	trace := []workload.Request{{At: 0, App: "nope", Deadline: 9}}
	if _, err := Simulate(trace, motiv.Library(), motiv.Platform(), core.New(), Options{}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestEventKindString(t *testing.T) {
	if Arrival.String() != "arrival" || Completion.String() != "completion" || EventKind(9).String() != "?" {
		t.Error("kind strings wrong")
	}
}
