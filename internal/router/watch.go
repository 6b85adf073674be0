package router

import (
	"context"
	"sync"
	"time"

	"adaptrm/internal/api"
)

// errNotStreaming is the taxonomy error for a backend that does not
// implement api.WatchService — a misconfigured deployment, spelled as a
// bad request rather than a transport failure.
func errNotStreaming(name string) error {
	return api.Errf(api.ErrBadRequest, "peer %s does not stream events", name)
}

// Watch implements api.WatchService.
//
// A single-device subscription — including any FromSeq resume —
// delegates wholesale to the device's owner: the owning node holds the
// retention window, so resume semantics (gap-free replay, the Lagged
// marker for an evicted range) are exactly the single-node semantics.
//
// A fleet-wide subscription opens one stream per backend and merges
// them into a single channel. Each device's events all travel its
// owner's stream, so per-device sequence order survives the merge;
// cross-device interleaving is unspecified, as it always was. The
// merged stream closes when every backend stream has closed or the
// context ends. A backend failing to open fails the whole subscription
// (the already-opened streams are released by cancelling the
// subscription context).
func (r *Router) Watch(ctx context.Context, req api.WatchRequest) (<-chan api.Event, error) {
	if req.Device != nil {
		p := r.ownerOf(*req.Device)
		b := r.backends[p]
		ws, ok := b.Service.(api.WatchService)
		if !ok {
			return nil, errNotStreaming(b.Name)
		}
		start := time.Now()
		ch, err := ws.Watch(ctx, req)
		return ch, r.finish(ctx, p, opWatch, start, err)
	}

	// Fleet-wide: open every backend stream first, so a refused
	// subscription costs nothing downstream.
	ctx, cancel := context.WithCancel(ctx)
	chans := make([]<-chan api.Event, len(r.backends))
	for i, b := range r.backends {
		ws, ok := b.Service.(api.WatchService)
		if !ok {
			cancel()
			return nil, errNotStreaming(b.Name)
		}
		start := time.Now()
		ch, err := ws.Watch(ctx, req)
		if err = r.finish(ctx, i, opWatch, start, err); err != nil {
			cancel()
			return nil, err
		}
		chans[i] = ch
	}

	out := make(chan api.Event)
	var wg sync.WaitGroup
	wg.Add(len(chans))
	for _, ch := range chans {
		go func(ch <-chan api.Event) {
			defer wg.Done()
			for ev := range ch {
				select {
				case out <- ev:
				case <-ctx.Done():
					// The subscriber is gone; drain nothing further.
					return
				}
			}
		}(ch)
	}
	go func() {
		wg.Wait()
		cancel()
		close(out)
	}()
	return out, nil
}
