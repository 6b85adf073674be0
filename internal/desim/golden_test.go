package desim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/lagrange"
	"adaptrm/internal/motiv"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the timeline goldens under testdata")

// checkGolden compares res with testdata/name byte for byte, rewriting
// the file under -update.
func checkGolden(t *testing.T, name string, res *Result) {
	t.Helper()
	// The deterministic part of a Result, one JSON line per segment and
	// per event: Stats carries the wall-clock scheduling time.
	var got []byte
	for _, seg := range res.Timeline {
		got = appendJSONLine(t, got, seg)
	}
	for _, ev := range res.Events {
		got = appendJSONLine(t, got, ev)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: timeline or events differ from the golden (rerun with -update only if the change is intended)", name)
	}
}

func appendJSONLine(t *testing.T, dst []byte, v any) []byte {
	t.Helper()
	line, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(dst, line...), '\n')
}

// TestTimelineGolden pins the executed timeline and event log of the
// motivational trace and of seeded random traces under MMKP-MDF and
// MMKP-LR, byte for byte.
func TestTimelineGolden(t *testing.T) {
	res, err := Simulate([]workload.Request{
		{At: 0, App: "lambda1", Deadline: 9},
		{At: 1, App: "lambda2", Deadline: 5},
	}, motiv.Library(), motiv.Platform(), core.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline-motivational.jsonl", res)

	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		trace, err := workload.Trace(lib, workload.TraceParams{Rate: 0.3, Horizon: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			sched sched.Scheduler
		}{{"mdf", core.New()}, {"lr", lagrange.New()}} {
			res, err := Simulate(trace, lib, plat, tc.sched, Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			checkGolden(t, fmt.Sprintf("timeline-%s-seed%d.jsonl", tc.name, seed), res)
		}
	}
}
