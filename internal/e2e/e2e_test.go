// Package e2e drives the real rmserve and rmsoak binaries over loopback
// sockets. Each row of TestE2E boots its own daemons on free ports: a
// strict soak against a plain daemon, a warm and refining daemon and an
// overloaded one; kill -9 recovery, mid-traffic and quiesced; two nodes
// behind a consistent-hash router; and starts that must be refused
// before they touch the data dir. TestMain builds both binaries once
// with the toolchain running the tests. One scenario runs alone with
//
//	go test ./internal/e2e -run 'TestE2E/crash' -v
//
// and a failing row logs the output of every daemon it started.
package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/httpapi"
)

// Set by TestMain: the directory holding the built rmserve and rmsoak,
// and the package dirs they are built from.
var (
	bin     string
	sources []string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "adaptrm-e2e-")
	if err == nil {
		err = build(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	bin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// build compiles rmserve and rmsoak into dir with the toolchain that
// runs the tests.
func build(dir string) error {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmds := []string{"adaptrm/cmd/rmserve", "adaptrm/cmd/rmsoak"}
	out, err := exec.Command(goTool, append([]string{"build", "-o", dir + string(filepath.Separator)}, cmds...)...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	out, err = exec.Command(goTool, append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}, cmds...)...).Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	sources = strings.Fields(string(out))
	return nil
}

// The soak shape of every row: 4 devices, 2 s, 100 ops/s (crash rows
// 150, the overload row 5x).
const (
	devices  = "4"
	duration = "2s"
	rps      = 100
)

func TestE2E(t *testing.T) {
	// go test caches a pass against the files the test opens once
	// m.Run has started, and the build read the sources in a child
	// process. Reading their dirs here makes an edit to any of them
	// invalidate the cached pass.
	for _, dir := range sources {
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"smoke", testSmoke},
		{"warm-refine", testWarmRefine},
		{"overload", testOverload},
		{"crash-mid-soak", testCrashMidSoak},
		{"crash-quiesced", testCrashQuiesced},
		{"multi-node", testMultiNode},
		{"refuse-bad-fsync", refused(func(t *testing.T) []string {
			return []string{"-listen", "127.0.0.1:0", "-fsync", "bogus", "-devices", "8"}
		})},
		{"refuse-missing-tenants", refused(func(t *testing.T) []string {
			return []string{"-listen", "127.0.0.1:0", "-tenants", filepath.Join(t.TempDir(), "absent.json")}
		})},
		{"refuse-invalid-tenants", refused(func(t *testing.T) []string {
			path := filepath.Join(t.TempDir(), "tenants.json")
			if err := os.WriteFile(path, []byte(`{"name":"not a list"}`), 0o644); err != nil {
				t.Fatal(err)
			}
			return []string{"-listen", "127.0.0.1:0", "-tenants", path}
		})},
		{"refuse-busy-listen", refused(func(t *testing.T) []string {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			return []string{"-listen", ln.Addr().String()}
		})},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			row.run(t)
		})
	}
}

// testSmoke: a plain daemon passes a strict soak — zero transport
// errors and an exact submitted reconciliation.
func testSmoke(t *testing.T) {
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-devices", devices)
	soak(t, d.addr, "-rps", strconv.Itoa(rps), "-strict")
}

// testWarmRefine builds a warm shared-tier file in replay mode (the
// refiners' exact searches drain into the tier at close), then soaks
// strictly against a daemon serving from that tier with background
// refinement on. The node budget is capped so the searches cannot
// monopolise a small host's cores; the soak gates reconciliation, not
// refinement depth.
func testWarmRefine(t *testing.T) {
	warm := filepath.Join(t.TempDir(), "warm.json")
	out, err := exec.Command(filepath.Join(bin, "rmserve"), "-devices", devices, "-horizon", "60",
		"-cache-shared", "-cache-warm-out", warm, "-refine", "-refine-workers", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("warm build: %v\n%s", err, out)
	}
	if fi, err := os.Stat(warm); err != nil || fi.Size() == 0 {
		t.Fatalf("warm build wrote no warm file (%v)\n%s", err, out)
	}
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-devices", devices,
		"-cache-warm", warm, "-refine", "-refine-workers", "2", "-refine-budget", "200000")
	soak(t, d.addr, "-rps", strconv.Itoa(rps), "-strict")
}

// testOverload: the controller's latency threshold is one any real
// admission clears, so within a few ticks the daemon walks to shedding
// — a deterministic stand-in for an offered rate far above what the
// host sustains. A 5x bursty soak must still pass strict (the shed
// counter reconciles with the client's overloaded refusals), keep the
// admitted submits' p99 under 500ms, and actually have shed.
func testOverload(t *testing.T) {
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-devices", devices,
		"-control", "-control-interval", "20ms", "-control-high-latency", "1ns")
	out := soak(t, d.addr, "-rps", strconv.Itoa(5*rps), "-burst", "4", "-strict", "-max-p99", "500ms")
	if !regexp.MustCompile(`(?m)^shedding:  server shed`).MatchString(out) {
		t.Errorf("the overload soak never shed: the controller did not engage\n%s", out)
	}
}

// testCrashMidSoak: a durable daemon killed -9 in the middle of a soak —
// no flush, no shutdown hook — restarts on the same dir with a recovery
// report and the submissions it persisted.
func testCrashMidSoak(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	a := startDaemon(t, durableArgs(dir)...)
	load := exec.Command(filepath.Join(bin, "rmsoak"), "-addr", "http://"+a.addr,
		"-rps", "150", "-duration", duration, "-devices", devices)
	if err := load.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	a.kill9()
	load.Process.Kill()
	load.Wait() // transport errors are the point: its daemon is gone

	b := startDaemon(t, durableArgs(dir)...)
	if !regexp.MustCompile(`(?m)^wal: +\S`).MatchString(b.log.String()) {
		t.Fatal("the restarted daemon printed no wal: recovery report")
	}
	if s := stats(t, b.addr); s.Submitted <= 0 {
		t.Errorf("recovered %d submissions, want > 0", s.Submitted)
	}
	b.kill9()
}

// testCrashQuiesced: after a strict soak, wait until the WAL holds every
// emitted event (with -fsync always, on disk), kill -9 and restart. The
// lifecycle ledger and the per-device WAL positions must come back
// exactly as they were. A fresh dir keeps this independent of the
// mid-soak crash: each rmsoak run starts its virtual clocks at zero, so
// it cannot follow a run on recovered devices.
func testCrashQuiesced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	c := startDaemon(t, durableArgs(dir)...)
	soak(t, c.addr, "-rps", "150", "-strict")
	quiesce(t, c.addr)
	before, beforeWAL := ledgerOf(stats(t, c.addr)), flightlogWAL(t, c.addr)
	if len(beforeWAL) == 0 {
		t.Fatal("the flightlog dump carries no WAL positions")
	}
	c.kill9()

	d := startDaemon(t, durableArgs(dir)...)
	if after := ledgerOf(stats(t, d.addr)); after != before {
		t.Errorf("recovered stats diverge from the pre-kill ones:\n before %+v\n after  %+v", before, after)
	}
	if afterWAL := perDevice(t, d.addr, "adaptrm_wal_last_seq"); !maps.Equal(afterWAL, beforeWAL) {
		t.Errorf("recovered WAL positions diverge from the pre-kill flightlog:\n before %v\n after  %v", beforeWAL, afterWAL)
	}
}

// testMultiNode: two nodes behind a router pass a strict soak through
// the router; the merged stats equal the per-node sums and both nodes
// saw traffic; a killed node turns the merged query into a clean
// 502/unavailable, never a partial sum. Ring seed 42 spreads devices
// 0..3 over both owners (the router's cross-topology equivalence test
// pins it).
func testMultiNode(t *testing.T) {
	n0 := startDaemon(t, "-listen", "127.0.0.1:0", "-devices", devices)
	n1 := startDaemon(t, "-listen", "127.0.0.1:0", "-devices", devices)
	r := startDaemon(t, "-route", "-listen", "127.0.0.1:0", "-peers", n0.addr+","+n1.addr, "-ring-seed", "42")
	soak(t, r.addr, "-rps", strconv.Itoa(rps), "-strict")

	names := [...]string{"submitted", "accepted", "rejected", "completed", "cancelled", "activations"}
	lifecycle := func(s api.StatsResult) [len(names)]int {
		return [...]int{s.Submitted, s.Accepted, s.Rejected, s.Completed, s.Cancelled, s.Activations}
	}
	merged, s0, s1 := lifecycle(stats(t, r.addr)), lifecycle(stats(t, n0.addr)), lifecycle(stats(t, n1.addr))
	for i, name := range names {
		if merged[i] != s0[i]+s1[i] {
			t.Errorf("merged %s = %d, node sum %d+%d", name, merged[i], s0[i], s1[i])
		}
	}
	if s0[0] == 0 || s1[0] == 0 {
		t.Errorf("a node got no traffic (submitted %d and %d): the ring did not spread the devices", s0[0], s1[0])
	}

	n1.kill9()
	resp, err := http.Get("http://" + r.addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("degraded stats: HTTP %d, body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusBadGateway || body.Error.Code != "unavailable" {
		t.Errorf("degraded stats: HTTP %d code %q, want 502 unavailable", resp.StatusCode, body.Error.Code)
	}
}

// refused returns a row that starts rmserve with args(t) plus a fresh
// -data-dir and requires it to exit non-zero without creating the dir:
// a start rmserve refuses must leave no meta.json behind to pin the
// next, corrected start to the refused configuration.
func refused(args func(t *testing.T) []string) func(t *testing.T) {
	return func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "data")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, filepath.Join(bin, "rmserve"),
			append(args(t), "-data-dir", dir)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || ctx.Err() != nil {
			t.Fatalf("rmserve was not refused (%v)\n%s", err, out)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("the refused start left %s behind (stat: %v)\n%s", dir, err, out)
		}
	}
}

// durableArgs are the crash rows' daemon flags: every event fsynced
// before the writer reports it appended.
func durableArgs(dir string) []string {
	return []string{"-listen", "127.0.0.1:0", "-devices", devices, "-data-dir", dir, "-fsync", "always"}
}

// daemon is one rmserve process started by startDaemon.
type daemon struct {
	cmd  *exec.Cmd
	log  *syncBuffer
	addr string        // host:port from the "listening:" line
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, set before done closes
}

var listening = regexp.MustCompile(`(?m)^listening: (\S+)`)

// startDaemon starts rmserve with args and waits for its listening:
// line. At the end of the test a daemon still running is interrupted
// and must exit 0; a failed test logs the daemon's output.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{log: new(syncBuffer), done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(bin, "rmserve"), args...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			d.cmd.Process.Signal(syscall.SIGINT)
			select {
			case <-d.done:
				if d.err != nil {
					t.Errorf("rmserve %s: interrupted, exited with %v", strings.Join(args, " "), d.err)
				}
			case <-time.After(15 * time.Second):
				d.cmd.Process.Kill()
				<-d.done
				t.Errorf("rmserve %s: no exit within 15s of SIGINT", strings.Join(args, " "))
			}
		}
		if t.Failed() {
			t.Logf("rmserve %s:\n%s", strings.Join(args, " "), d.log.String())
		}
	})
	deadline := time.After(10 * time.Second)
	for {
		if m := listening.FindStringSubmatch(d.log.String()); m != nil {
			d.addr = m[1]
			return d
		}
		select {
		case <-d.done:
			t.Fatalf("rmserve exited before listening: %v", d.err)
		case <-deadline:
			t.Fatal("rmserve printed no listening: line within 10s")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// kill9 sends SIGKILL — no flush, no shutdown hook — and waits for the
// process to be gone.
func (d *daemon) kill9() {
	d.cmd.Process.Kill()
	<-d.done
}

// soak runs a 2 s rmsoak against addr with the row's flags, fails the
// test when it exits non-zero, and returns its report.
func soak(t *testing.T, addr string, args ...string) string {
	t.Helper()
	args = append([]string{"-addr", "http://" + addr, "-duration", duration, "-devices", devices}, args...)
	out, err := exec.Command(filepath.Join(bin, "rmsoak"), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("rmsoak %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// stats reads the fleet-wide GET /v1/stats.
func stats(t *testing.T, addr string) api.StatsResult {
	t.Helper()
	s, err := httpapi.NewClient("http://"+addr, "", nil).Stats(context.Background(), api.StatsRequest{})
	if err != nil {
		t.Fatalf("stats of %s: %v", addr, err)
	}
	return s
}

// ledger is the lifecycle ledger plus energy: what a quiesced kill -9
// must recover exactly. Cache counters, activations and scheduling time
// are left out: replay re-executes the decisions, not the incidental
// solver work, so those are documented to diverge.
type ledger struct {
	Devices, Submitted, Accepted, Rejected, Completed, DeadlineMisses, Cancelled int
	Energy                                                                       float64
}

func ledgerOf(s api.StatsResult) ledger {
	return ledger{s.Devices, s.Submitted, s.Accepted, s.Rejected, s.Completed, s.DeadlineMisses, s.Cancelled, s.Energy}
}

// quiesce waits until every device's WAL position equals its emitted
// event sequence. The writer is asynchronous; with -fsync always what
// it has appended is on disk.
func quiesce(t *testing.T, addr string) {
	t.Helper()
	var events, wal map[int]int64
	for range 100 {
		events, wal = perDevice(t, addr, "adaptrm_device_event_seq"), perDevice(t, addr, "adaptrm_wal_last_seq")
		caughtUp := len(events) > 0
		for dev, seq := range events {
			if wal[dev] != seq {
				caughtUp = false
			}
		}
		if caughtUp {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("the WAL never caught up with the event stream: events %v, wal %v", events, wal)
}

// perDevice scrapes /metrics for the device-labelled samples of family.
func perDevice(t *testing.T, addr, family string) map[int]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[int]int64{}
	prefix := family + `{device="`
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		dev, val, ok := strings.Cut(rest, `"} `)
		d, err1 := strconv.Atoi(dev)
		v, err2 := strconv.ParseInt(val, 10, 64)
		if !ok || err1 != nil || err2 != nil {
			t.Fatalf("malformed /metrics sample %q", sc.Text())
		}
		out[d] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// flightlogWAL reads the per-device WAL positions from the flightlog
// dump's WAL status.
func flightlogWAL(t *testing.T, addr string) map[int]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/flightlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Aux struct {
			WAL struct {
				Devices []struct {
					Device  int   `json:"device"`
					LastSeq int64 `json:"last_seq"`
				} `json:"devices"`
			} `json:"wal"`
		} `json:"aux"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decoding /debug/flightlog: %v", err)
	}
	out := map[int]int64{}
	for _, d := range dump.Aux.WAL.Devices {
		out[d.Device] = d.LastSeq
	}
	return out
}

// syncBuffer is a bytes.Buffer the daemon's output goroutines write
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
