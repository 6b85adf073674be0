package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// usage is what a timed section consumed.
type usage struct {
	wall    time.Duration
	cpu     float64 // user+system CPU seconds of the whole process
	mallocs uint64  // heap objects allocated by the whole process
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measure runs f and reports its wall time, CPU time and allocations.
func measure(f func()) usage {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	start := time.Now()
	f()
	wall := time.Since(start)
	cpu = cpuSeconds() - cpu
	runtime.ReadMemStats(&after)
	return usage{wall: wall, cpu: cpu, mallocs: after.Mallocs - before.Mallocs}
}

// fingerprint identifies what two result files must share to be
// comparable.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
}

func hostFingerprint(scale float64, seed int64, seconds int) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale, Seed: seed, Seconds: seconds,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fp
}
