// Command rmsim runs the online runtime manager against a dynamic request
// trace in a discrete-event simulation and prints the event log, the
// executed Gantt chart and acceptance/energy statistics. It demonstrates
// the dynamic behaviour the paper motivates: requests arriving at any
// time, adaptive remapping, and firm-deadline admission control.
//
// Usage:
//
//	rmsim [-sched mdf|lr|exmem|greedy|fixed|fixed-remap] [-rate R]
//	      [-horizon T] [-seed S] [-motivational]
package main

import (
	"flag"
	"fmt"
	"os"

	"adaptrm/internal/desim"
	"adaptrm/internal/dse"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/schedreg"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

func main() {
	schedName := flag.String("sched", "mdf", "scheduler: "+schedreg.Names())
	rate := flag.Float64("rate", 0.15, "mean arrivals per second")
	horizon := flag.Float64("horizon", 300, "trace duration in seconds")
	seed := flag.Int64("seed", 1, "trace seed")
	motivational := flag.Bool("motivational", false, "replay the paper's Section III scenario instead of a random trace")
	flag.Parse()

	scheduler, err := schedreg.New(*schedName)
	if err != nil {
		fatal(err)
	}

	var lib *opset.Library
	var plat platform.Platform
	var trace []workload.Request
	if *motivational {
		plat = motiv.Platform()
		lib = motiv.Library()
		trace = []workload.Request{
			{At: 0, App: "lambda1", Deadline: 9},
			{At: 1, App: "lambda2", Deadline: 5},
		}
	} else {
		plat = platform.OdroidXU4()
		lib, err = dse.StandardLibrary(plat)
		if err != nil {
			fatal(err)
		}
		trace, err = workload.Trace(lib, workload.TraceParams{Rate: *rate, Horizon: *horizon, Seed: *seed})
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("platform:  %s\n", plat)
	fmt.Printf("scheduler: %s\n", scheduler.Name())
	fmt.Printf("trace:     %d requests\n\n", len(trace))

	res, err := desim.Simulate(trace, lib, plat, scheduler, desim.Options{})
	if err != nil {
		fatal(err)
	}
	res.WriteLog(os.Stdout)
	fmt.Println()
	res.Summary(os.Stdout)

	if len(res.Timeline) > 0 {
		fmt.Println()
		fmt.Println("Executed timeline:")
		// Rebuild a pseudo job set for rendering: jobs may repeat IDs
		// across the run only if the manager reused them (it does not).
		jobs := collectJobs(res, lib, trace)
		k := &schedule.Schedule{Segments: res.Timeline}
		if out, err := schedule.RenderGantt(k, jobs, plat, 100); err == nil {
			fmt.Print(out)
		}
		fmt.Println()
		schedule.ComputeMetrics(k, jobs).Render(os.Stdout)
	}
}

// collectJobs reconstructs a job set covering all executed placements so
// the Gantt renderer can resolve operating points. Remaining ratios are
// irrelevant for rendering; deadlines are cosmetic here.
func collectJobs(res *desim.Result, lib *opset.Library, trace []workload.Request) job.Set {
	apps := map[int]string{}
	for _, e := range res.Events {
		if e.Kind == desim.Arrival && e.Accepted {
			apps[e.JobID] = e.App
		}
	}
	var jobs job.Set
	for id, app := range apps {
		if tbl := lib.Get(app); tbl != nil {
			jobs = append(jobs, &job.Job{ID: id, Table: tbl, Deadline: 1e12, Remaining: 1})
		}
	}
	return jobs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmsim:", err)
	os.Exit(1)
}
