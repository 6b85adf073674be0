package httpapi_test

import (
	"errors"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/motiv"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics goldens under testdata")

// goldenScrape reduces a /metrics body to its stable lines, sorted
// (families may come in any order, which the text format allows). It
// keeps every HELP/TYPE line but drops the samples of the families
// whose values hang on the wall clock or on goroutine scheduling.
func goldenScrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	timing := map[string]bool{
		"adaptrm_uptime_seconds": true, "adaptrm_scheduler_busy_seconds_total": true,
		"adaptrm_http_request_seconds": true, "adaptrm_queue_depth_max": true,
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if timing[strings.TrimSuffix(name, suffix)] {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		if line[0] == '#' || !timing[name] {
			keep = append(keep, line)
		}
	}
	sort.Strings(keep)
	return strings.Join(keep, "\n") + "\n"
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s (rerun with -update after an intended change):\ngot:\n%s", path, got)
	}
}

// TestMetricsGolden pins every /metrics family name, HELP, TYPE, label
// set and value for a seeded fleet with caching, a shared tier,
// explicitly stepped refinement and an explicit batch; the controller
// variant adds the degradation families after walking the controller
// to shedding with two deterministic ticks.
func TestMetricsGolden(t *testing.T) {
	const devices = 3
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: 90, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(t *testing.T, f *fleet.Fleet) *httptest.Server {
		ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
		t.Cleanup(ts.Close)
		return ts
	}

	t.Run("plain", func(t *testing.T) {
		f := newFleet(t, devices, fleet.Options{
			Shards: 2, Cache: true, SharedCache: schedcache.NewShared(),
			Refine: true, RefineWorkers: -1, RefineBudget: 2000,
		})
		defer f.Close()
		svc := f.Service()
		// Step refinement after every admission, so its swaps land
		// while the admitted jobs are still active.
		for i, r := range trace {
			res, err := svc.Submit(bg, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
			if err != nil && !errors.Is(err, api.ErrInfeasible) {
				t.Fatal(err)
			}
			for f.Refiner().TryStep() {
			}
			if res.Accepted && i%7 == 0 {
				if _, err := svc.Cancel(bg, api.CancelRequest{Device: r.Device, JobID: res.JobID}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := api.SubmitBatch(bg, svc, api.BatchSubmitRequest{Device: 1, At: 100, Items: []api.BatchItem{
			{App: "lambda1", Deadline: 109}, {App: "lambda2", Deadline: 105},
		}}); err != nil {
			t.Fatal(err)
		}
		// A synchronous op per device orders the scrape behind any
		// fire-and-forget swap a search posted.
		for d := 0; d < devices; d++ {
			if _, err := svc.Advance(bg, api.AdvanceRequest{Device: d, To: 120}); err != nil {
				t.Fatal(err)
			}
		}
		checkGolden(t, "metrics-plain.golden", goldenScrape(t, serve(t, f)))
	})

	t.Run("control", func(t *testing.T) {
		ctl := control.New(control.Config{HighLatency: 1, EnterTicks: 1})
		f := newFleet(t, devices, fleet.Options{Shards: 2, Control: ctl})
		defer f.Close()
		svc := f.Service()
		for i, tick := range []float64{1, 2} {
			at := float64(i)
			if _, err := svc.Submit(bg, api.SubmitRequest{Device: i, At: at, App: "lambda1", Deadline: at + 9}); err != nil {
				t.Fatal(err)
			}
			ctl.Tick(tick)
		}
		if _, err := svc.Submit(bg, api.SubmitRequest{Device: 2, At: 2, App: "lambda1", Deadline: 11}); !errors.Is(err, api.ErrOverloaded) {
			t.Fatalf("submit in shedding mode: %v, want ErrOverloaded", err)
		}
		checkGolden(t, "metrics-control.golden", goldenScrape(t, serve(t, f)))
	})
}
