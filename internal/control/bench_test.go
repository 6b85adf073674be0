package control

import (
	"testing"
	"time"

	"adaptrm/internal/api"
)

// BenchmarkControlTick measures one steady-state control decision:
// a latency observation, a Limits read, and a Tick over a mid-band
// source (no mode transition, so the onMode hook does not fire). Gated
// at 0 allocs/op in CI — the controller sits on the admission hot path
// and must not pressure the collector.
func BenchmarkControlTick(b *testing.B) {
	src := &fakeSource{depth: 4, capacity: 8}
	c := New(Config{BaseWindow: 0.1, MaxWindow: 0.8, HighLatency: 50 * time.Millisecond})
	c.Attach(src, func(from, to api.Mode) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveLatency(time.Millisecond)
		_ = c.Limits()
		c.Tick(float64(i))
	}
}
