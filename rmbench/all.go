package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"text/tabwriter"
)

// resultFile is what `rmbench -workload all` prints as its last line and
// what -compare reads.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []runResult `json:"runs"`
}

// runResult is one workload measured once: the untraced run's end-to-end
// metrics and the traced run's per-layer metrics together.
type runResult struct {
	Workload string `json:"workload"`
	result
}

// runAll measures every workload runs times. Each workload and mode runs
// in a child process of this same binary, so peak_rss_mb is the
// high-water mark of that workload alone.
func runAll(o options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Fingerprint: hostFingerprint(o.env.scale, o.env.seed, o.seconds)}
	for _, spec := range workloads {
		for i := 0; i < runs; i++ {
			rr := runResult{Workload: spec.name, result: result{Correct: true, Metrics: map[string]metricValue{}}}
			for _, mode := range []string{"0", "1"} {
				args := []string{"-workload", spec.name, "-trace", mode, "-tmp", o.env.tmp,
					"-seed", strconv.FormatInt(o.env.seed, 10), "-seconds", strconv.Itoa(o.seconds),
					"-scale", strconv.FormatFloat(o.env.scale, 'g', -1, 64)}
				if mode == "1" && o.traceOut != "" {
					args = append(args, "-trace-out", o.traceOut+"."+spec.name)
				}
				res, err := runChild(self, args)
				if err != nil {
					return err
				}
				rr.Attempted += res.Attempted
				rr.Failed += res.Failed
				for name, v := range res.Metrics {
					rr.Metrics[name] = v
				}
			}
			file.Runs = append(file.Runs, rr)
		}
	}
	line, err := json.Marshal(file)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runChild runs one child, passes its table through and parses the
// result object on its last line.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	table, last := splitLastLine(out)
	os.Stdout.Write(table)
	res := new(result)
	if err := json.Unmarshal(last, res); err != nil {
		return nil, fmt.Errorf("%v: result line: %w", args, err)
	}
	return res, nil
}

// splitLastLine separates the last non-empty line from what precedes it.
func splitLastLine(out []byte) (head, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, last := splitLastLine(data)
	f := new(resultFile)
	if err := json.Unmarshal(last, f); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result object: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return f, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does, which is what the driver
// uses. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// errWorse is compareFiles' error when a metric regressed.
var errWorse = errors.New("at least one metric is worse")

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the change in the metric's worse direction as a share of A's
// median, the bound and a verdict. A change beyond the bound is worse.
// Where either side's spread between quartiles exceeds the bound the row
// is unresolved — unless every run of one side beats every run of the
// other, which settles it.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("results are not comparable:\n %s: %+v\n %s: %+v", pathA, a.Fingerprint, pathB, b.Fingerprint)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbetter\tA median\tB median\tworse by\tbound\tverdict")
	worse := false
	for _, spec := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(spec.name, m.Name), b.values(spec.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change, medA, medB := judge(m, va, vb)
			worse = worse || verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%s\n",
				spec.name, m.Name, m.Better, medA, medB, 100*change, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse {
		return errWorse
	}
	return nil
}

func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares B's runs of one metric against A's. change is how far
// B's median lies from A's in the worse direction, as a share of A's.
func judge(m metricSpec, a, b []float64) (verdict string, change, medA, medB float64) {
	sign := 1.0 // lower is better: growing is worse
	if m.Better == "higher" {
		sign = -1
	}
	a1, medA, a3 := quartiles(a)
	b1, medB, b3 := quartiles(b)
	change = sign * (medB - medA) / medA
	spread := max((a3-a1)/medA, (b3-b1)/medB)
	// Every run of B on one side of every run of A settles the direction
	// whatever the spread.
	bAllBetter := sign*(slices.Max(b)-slices.Min(a)) < 0 && sign*(slices.Min(b)-slices.Max(a)) < 0
	bAllWorse := sign*(slices.Max(b)-slices.Min(a)) > 0 && sign*(slices.Min(b)-slices.Max(a)) > 0
	switch {
	case spread > m.Bound && bAllBetter:
		return "ok", change, medA, medB
	case spread > m.Bound && !(bAllWorse && change > m.Bound):
		return "unresolved", change, medA, medB
	case change > m.Bound:
		return "worse", change, medA, medB
	}
	return "ok", change, medA, medB
}
