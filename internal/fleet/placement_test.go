package fleet

import (
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/placement"
)

// TestDefaultPlacementIsModulo pins the refactor: with Options.Placement
// unset, device→shard assignment must stay the historical dev % shards,
// byte-identical to the fleet before the placement layer existed.
func TestDefaultPlacementIsModulo(t *testing.T) {
	f := newTestFleet(t, 7, Options{Shards: 3})
	defer f.Close()
	if got := len(f.shards); got != 3 {
		t.Fatalf("shard count = %d, want 3", got)
	}
	for dev := 0; dev < 7; dev++ {
		if got, want := f.shardOf(dev), f.shards[dev%3]; got != want {
			t.Fatalf("device %d mapped off the historical modulo shard", dev)
		}
	}
}

// TestCustomPlacementRoutesShards runs the same trace under the modulo
// default and under a ring placement: shard assignment changes, device
// behaviour must not — placement only picks which worker owns the
// mailbox, never what the device computes.
func TestCustomPlacementRoutesShards(t *testing.T) {
	ring := placement.MustRing(placement.RingConfig{Owners: 3, Seed: 17})
	run := func(opt Options) Stats {
		const n = 6
		f := newTestFleet(t, n, opt)
		for d := 0; d < n; d++ {
			if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: d, At: 0, App: "lambda1", Deadline: 9}); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: d, At: 1, App: "lambda2", Deadline: 5}); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return deterministic(f.Stats())
	}
	base := run(Options{Shards: 3})
	ringed := run(Options{Placement: ring})
	if base != ringed {
		t.Fatalf("ring placement changed fleet behaviour:\nmodulo: %+v\nring:   %+v", base, ringed)
	}
}

// TestPlacementOwnsShardCount checks a placement's Owners() defines the
// worker count, overriding Options.Shards.
func TestPlacementOwnsShardCount(t *testing.T) {
	f := newTestFleet(t, 4, Options{Shards: 9, Placement: placement.Modulo(2)})
	defer f.Close()
	if got := len(f.shards); got != 2 {
		t.Fatalf("shard count = %d, want the placement's 2", got)
	}
}
