package fleet

import (
	"testing"

	"adaptrm/internal/api"
)

// BenchmarkWatchFanout measures the publish hot path a shard worker
// pays per manager event: offering one event to every matching
// subscriber's ring. The subscriber set is the deployed node's — one
// device-filtered subscriber per device (the WAL writer tails every
// device this way) plus one fleet-wide watcher — and events rotate
// over the devices, so the figure includes the hub's device index.
// Consumers are deliberately absent — full rings fold into Lagged
// markers — so the figure isolates the worker-side cost, which the
// allocs gate pins at zero (like the packer): fanning an event out
// must never allocate, whatever the subscriber count.
func BenchmarkWatchFanout(b *testing.B) {
	h := newHub()
	const devices = 64
	for dev := -1; dev < devices; dev++ {
		s := &subscriber{
			device: dev,
			ring:   newEventRing(64),
			wake:   make(chan struct{}, 1),
			out:    make(chan api.Event),
		}
		if err := h.register(s); err != nil {
			b.Fatal(err)
		}
	}
	ev := api.Event{Type: api.EventJobAdmitted, JobID: 1, App: "lambda1", Deadline: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Device = i % devices
		ev.Seq = uint64(i/devices + 1)
		h.publish(ev)
	}
}
