package fleet

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"adaptrm/internal/api"
	"adaptrm/internal/rm"
)

// The watch subsystem fans device lifecycle events out to any number of
// concurrent subscribers without ever blocking a shard worker.
//
// Every device's manager emits typed events (admissions, rejections,
// starts, completions, cancellations, schedule changes) with per-device
// monotone sequence numbers; the fleet records the tail of each stream
// in a per-device history ring (for resume) and pushes each event into
// every matching subscriber's bounded ring. Publishing is strictly
// non-blocking: a full subscriber ring converts its newest slot into an
// EventLagged marker that absorbs further drops, so a stalled consumer
// costs events — surfaced explicitly — never worker throughput. A pump
// goroutine per subscriber drains the ring into the subscriber's
// channel at the consumer's pace.

// defaultEventHistory is the per-device retained-event count serving
// WatchRequest.FromSeq resumes when Options.EventHistory is zero.
const defaultEventHistory = 1024

// defaultWatchBuffer is the per-subscriber ring capacity when neither
// Options.WatchBuffer nor WatchRequest.Buffer overrides it.
const defaultWatchBuffer = 256

// maxWatchBuffer caps WatchRequest.Buffer: the request is
// client-supplied (over HTTP, by anyone who may watch), so it must not
// translate into an arbitrarily large allocation.
const maxWatchBuffer = 1 << 16

// eventRing is a fixed-capacity FIFO of events. The zero value is
// unusable; make one with newEventRing.
type eventRing struct {
	buf  []api.Event
	head int // index of the oldest element
	n    int // current count
}

func newEventRing(capacity int) eventRing {
	return eventRing{buf: make([]api.Event, capacity)}
}

// push appends ev, evicting the oldest element when full.
func (r *eventRing) push(ev api.Event) {
	if r.n == len(r.buf) {
		r.buf[r.head] = ev
		r.head = (r.head + 1) % len(r.buf)
		return
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ev
	r.n++
}

// at returns the i-th oldest element.
func (r *eventRing) at(i int) api.Event { return r.buf[(r.head+i)%len(r.buf)] }

// last returns a pointer to the newest element (n must be > 0).
func (r *eventRing) last() *api.Event { return &r.buf[(r.head+r.n-1)%len(r.buf)] }

// pop removes and returns the oldest element.
func (r *eventRing) pop() (api.Event, bool) {
	if r.n == 0 {
		return api.Event{}, false
	}
	ev := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return ev, true
}

// tailFrom appends the retained events with Seq >= seq to into, in
// order, and reports the oldest retained sequence number (0 when the
// ring is empty).
func (r *eventRing) tailFrom(seq uint64, into []api.Event) ([]api.Event, uint64) {
	var first uint64
	for i := 0; i < r.n; i++ {
		ev := r.at(i)
		if i == 0 {
			first = ev.Seq
		}
		if ev.Seq >= seq {
			into = append(into, ev)
		}
	}
	return into, first
}

// subscriber is one watch stream: a bounded event ring filled by
// publishers and drained by a dedicated pump goroutine into out.
type subscriber struct {
	// device filters the stream (-1 = all devices).
	device int
	// dropped points at the hub's fleet-wide drop counter, bumped once
	// per event this subscriber's ring discards (observability only —
	// the per-stream loss stays in the in-stream Lagged markers).
	dropped *atomic.Int64

	mu   sync.Mutex
	ring eventRing

	// wake nudges the pump after an offer (1-buffered, never blocks).
	wake chan struct{}
	// backlog is the resume prefix, delivered before any ring content.
	backlog []api.Event
	// out is the consumer-facing channel, closed by the pump.
	out chan api.Event
}

// offer enqueues one event without ever blocking: when the ring is
// full, its newest slot becomes (or extends) an EventLagged marker
// absorbing both the displaced event and the incoming one, so the
// consumer learns exactly that — and how much — it lost.
func (s *subscriber) offer(ev api.Event) {
	s.mu.Lock()
	if s.ring.n < len(s.ring.buf) {
		s.ring.push(ev)
	} else {
		tail := s.ring.last()
		if tail.Type != api.EventLagged {
			// Displace the newest queued event: both it and the incoming
			// event are lost, and the marker inherits the position of the
			// first loss.
			if s.dropped != nil {
				s.dropped.Add(2)
			}
			marker := api.Event{Type: api.EventLagged, Device: tail.Device, Seq: tail.Seq, Dropped: 2}
			if tail.Device != ev.Device {
				marker.Device, marker.Seq = -1, 0
			}
			*tail = marker
		} else {
			if s.dropped != nil {
				s.dropped.Add(1)
			}
			tail.Dropped++
			if tail.Device != ev.Device {
				tail.Device, tail.Seq = -1, 0
			}
		}
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pop removes the oldest buffered event.
func (s *subscriber) pop() (api.Event, bool) {
	s.mu.Lock()
	ev, ok := s.ring.pop()
	s.mu.Unlock()
	return ev, ok
}

// hub is the fleet-wide subscriber registry, indexed so that publishing
// touches only the subscribers an event is for: the fleet-wide ones and
// those filtering on the event's device. The lock is read-write so
// publishing — the per-event hot path every shard worker runs — only
// shares the index; exclusive access is reserved for the rare
// membership changes, which edit the slices in place.
type hub struct {
	mu sync.RWMutex
	// all holds the fleet-wide subscribers, byDevice[d] those filtering
	// on device d (grown on demand).
	all      []*subscriber
	byDevice [][]*subscriber
	closed   bool
	// done is closed by close(), releasing every pump for final drain.
	done chan struct{}
	// dropped counts events discarded from slow subscribers' rings,
	// fleet-wide and monotone (subscribers come and go; the counter
	// survives them for the /metrics export).
	dropped atomic.Int64
}

// subscribers snapshots the open-subscription count.
func (h *hub) subscribers() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := len(h.all)
	for _, subs := range h.byDevice {
		n += len(subs)
	}
	return n
}

func newHub() *hub {
	return &hub{done: make(chan struct{})}
}

// publish offers ev to every matching subscriber. It never blocks on
// consumers and holds the hub lock only shared, so shard workers
// publish concurrently; per-device event order is preserved because a
// device's events are published under its device lock, and each
// subscriber's ring serializes offers with its own mutex.
func (h *hub) publish(ev api.Event) {
	h.mu.RLock()
	if ev.Device >= 0 && ev.Device < len(h.byDevice) {
		for _, s := range h.byDevice[ev.Device] {
			s.offer(ev)
		}
	}
	for _, s := range h.all {
		s.offer(ev)
	}
	h.mu.RUnlock()
}

// register adds a subscriber, failing once the hub is closed.
func (h *hub) register(s *subscriber) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errClosed
	}
	if s.device < 0 {
		h.all = append(h.all, s)
	} else {
		if s.device >= len(h.byDevice) {
			h.byDevice = append(h.byDevice, make([][]*subscriber, s.device+1-len(h.byDevice))...)
		}
		h.byDevice[s.device] = append(h.byDevice[s.device], s)
	}
	return nil
}

func (h *hub) unregister(s *subscriber) {
	h.mu.Lock()
	list := &h.all
	if s.device >= 0 {
		list = &h.byDevice[s.device]
	}
	if i := slices.Index(*list, s); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
	h.mu.Unlock()
}

// close stops accepting subscribers and releases every pump to drain
// its remaining buffer and close its channel. Callers must ensure no
// publish follows (the fleet closes the hub after all workers stopped
// and all devices drained).
func (h *hub) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.done)
	}
	h.mu.Unlock()
}

// clampBuffer resolves a subscription's ring capacity: the caller's
// request, the fleet default when absent, and never above
// maxWatchBuffer — the value crosses the network on /v1/watch, so it
// must not translate into an arbitrarily large allocation.
func clampBuffer(requested, fleetDefault int) int {
	switch {
	case requested <= 0:
		return fleetDefault
	case requested > maxWatchBuffer:
		return maxWatchBuffer
	default:
		return requested
	}
}

// toAPIEvent lifts one manager event onto the wire for device dev. It
// is the single conversion point, shared by the live sink and the
// recovery replay's verification (which re-derives events and compares
// them against a persisted log).
func toAPIEvent(dev int, ev rm.Event) api.Event {
	return api.Event{
		Device:   dev,
		Seq:      ev.Seq,
		Type:     api.EventType(ev.Type),
		At:       ev.At,
		JobID:    ev.JobID,
		App:      ev.App,
		Deadline: ev.Deadline,
		Missed:   ev.Missed,
		Payload:  ev.Payload,
	}
}

// installSink wires a device's manager to the history ring and the hub.
// The sink runs synchronously inside manager calls, which all happen
// under d.mu, so history order always matches sequence order.
func (f *Fleet) installSink(d *device) {
	d.mgr.SetEventSink(func(ev rm.Event) {
		ae := toAPIEvent(d.id, ev)
		d.history.push(ae)
		f.hub.publish(ae)
	})
}

// Watch implements the api.WatchService subscription for the in-process
// fleet: a channel of device lifecycle events in per-device sequence
// order. With req.Device set the stream covers one device and may
// resume from req.FromSeq (retained events first, then live, gap-free);
// without it the stream covers the whole fleet, live-only. The channel
// closes when ctx ends or the fleet shuts down — after Close's final
// drain events. Slow consumers never block shard workers: overflow
// surfaces as an EventLagged marker in-stream (see api.EventLagged).
func (f *Fleet) Watch(ctx context.Context, req api.WatchRequest) (<-chan api.Event, error) {
	dev := -1
	if req.Device != nil {
		dev = *req.Device
		if dev < 0 || dev >= len(f.devices) {
			return nil, api.Errf(api.ErrUnknownDevice, "watch device %d of %d", dev, len(f.devices))
		}
	} else if req.FromSeq > 0 {
		return nil, api.Errf(api.ErrBadRequest, "from_seq requires a device filter")
	}
	sub := &subscriber{
		device:  dev,
		dropped: &f.hub.dropped,
		ring:    newEventRing(clampBuffer(req.Buffer, f.watchBuffer)),
		wake:    make(chan struct{}, 1),
		out:     make(chan api.Event),
	}
	if req.FromSeq > 0 {
		// Snapshot the history tail and register in one step under the
		// device lock: publishing happens under it too, so the live
		// stream continues exactly where the snapshot ends.
		d := f.devices[dev]
		d.mu.Lock()
		backlog, first := d.history.tailFrom(req.FromSeq, nil)
		if first > req.FromSeq {
			// The retention window no longer reaches back to FromSeq: the
			// stream opens with the evicted range as an explicit gap.
			backlog = append([]api.Event{{
				Type: api.EventLagged, Device: dev, Seq: req.FromSeq,
				Dropped: int(first - req.FromSeq),
			}}, backlog...)
		}
		sub.backlog = backlog
		err := f.hub.register(sub)
		d.mu.Unlock()
		if err != nil {
			return nil, api.Errf(api.ErrClosed, "watch on closed fleet")
		}
	} else if err := f.hub.register(sub); err != nil {
		return nil, api.Errf(api.ErrClosed, "watch on closed fleet")
	}
	go f.pump(ctx, sub)
	return sub.out, nil
}

// pump drains one subscriber's buffer into its channel at the
// consumer's pace, delivering the resume backlog first. It exits —
// unregistering and closing the channel — when the context ends or
// when the hub shuts down and the buffer is empty.
func (f *Fleet) pump(ctx context.Context, sub *subscriber) {
	defer func() {
		f.hub.unregister(sub)
		close(sub.out)
	}()
	for _, ev := range sub.backlog {
		select {
		case sub.out <- ev:
		case <-ctx.Done():
			return
		}
	}
	sub.backlog = nil
	for {
		if ev, ok := sub.pop(); ok {
			select {
			case sub.out <- ev:
				continue
			case <-ctx.Done():
				return
			}
		}
		select {
		case <-sub.wake:
		case <-ctx.Done():
			return
		case <-f.hub.done:
			// Shutdown: no further publishes can happen, so draining what
			// is buffered completes the stream.
			for {
				ev, ok := sub.pop()
				if !ok {
					return
				}
				select {
				case sub.out <- ev:
				case <-ctx.Done():
					return
				}
			}
		}
	}
}

// Watch implements api.WatchService on the fleet's service view; see
// (*Fleet).Watch.
func (s *Service) Watch(ctx context.Context, req api.WatchRequest) (<-chan api.Event, error) {
	return s.f.Watch(ctx, req)
}

var _ api.WatchService = (*Service)(nil)
