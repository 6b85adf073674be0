package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear histogram of nanosecond durations owned by one
// goroutine: values below 256 ns are exact and every octave above has
// 128 sub-buckets (<0.8% wide). Quantiles interpolate inside the bucket,
// so a reported p50 moves continuously from run to run instead of
// snapping to a bucket midpoint the way metrics.HDR does — the driver
// rejects a timing that reads identically on every run.
type hist struct {
	counts [histSize]uint32
	n      uint64
	sum    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 40 // ~18 minutes; larger values clamp
	histSize    = 2*histSub + (histMaxBits-histSubBits-1)*histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	l := bits.Len64(uint64(v))
	if l <= histSubBits+1 {
		return int(v)
	}
	shift := l - (histSubBits + 1)
	return int(v>>shift) + shift<<histSubBits
}

func histBounds(idx int) (lo, hi int64) {
	if idx < 2*histSub {
		return int64(idx), int64(idx) + 1
	}
	shift := idx>>histSubBits - 1
	lo = int64(idx-shift<<histSubBits) << shift
	return lo, lo + 1<<shift
}

func (h *hist) observe(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
	h.sum += int64(d)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum, last float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := histBounds(i)
		if cum+float64(c) >= target {
			return float64(lo) + (target-cum)/float64(c)*float64(hi-lo)
		}
		cum += float64(c)
		last = float64(hi)
	}
	return last
}

// us returns the q-quantile in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }

// seconds returns the total recorded time.
func (h *hist) seconds() float64 { return float64(h.sum) / 1e9 }
