package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/workload"
)

// clients is the number of closed-loop client goroutines of a service
// workload. It is fixed, not derived from the CPU count, so the op
// sequence — and every counter that follows from it — is the same on
// every host.
const clients = 2

// unit is one admission call of a plan: one request, or the requests of
// one coincident burst sent as a single SubmitBatch.
type unit struct {
	device int
	at     float64
	items  []api.BatchItem
}

// plan is the fixed op sequence of one round. The API wants
// non-decreasing virtual time per device, so a device's next call can
// only follow its previous reply: client w owns the devices with
// device % len(units) == w and replays their units in trace order. The
// follow-up ops are rmsoak's mix, counted per device so the per-device
// sequence does not depend on how devices are split over clients.
type plan struct {
	devices      int
	units        [][]unit // per client
	batch        bool     // send every unit through api.SubmitBatch
	advanceEvery int      // Advance to the unit's time after every n-th unit of a device
	cancelEvery  int      // Cancel the latest admission after every n-th accept of a device
	statsEvery   int      // fleet-wide Stats after every n-th op of a client
}

// newPlan splits a fleet trace over nClients clients; with batch set,
// requests sharing a device and arrival time become one unit.
func newPlan(trace []workload.FleetRequest, devices, nClients int, batch bool) *plan {
	p := &plan{devices: devices, units: make([][]unit, nClients), batch: batch}
	for _, r := range trace {
		w := r.Device % nClients
		item := api.BatchItem{App: r.App, Deadline: r.Deadline}
		if us := p.units[w]; batch && len(us) > 0 && us[len(us)-1].device == r.Device && us[len(us)-1].at == r.At {
			us[len(us)-1].items = append(us[len(us)-1].items, item)
			continue
		}
		p.units[w] = append(p.units[w], unit{device: r.Device, at: r.At, items: []api.BatchItem{item}})
	}
	return p
}

// spanCapacity bounds the spans one traced run of the plan records:
// every op a span at each of the four service boundaries, and three per
// request for its solves and refinement steps.
func (p *plan) spanCapacity() int {
	units, items := 0, 0
	for _, us := range p.units {
		units += len(us)
		for _, u := range us {
			items += len(u.items)
		}
	}
	ops := units
	if p.advanceEvery > 0 {
		ops += units / p.advanceEvery
	}
	if p.cancelEvery > 0 {
		ops += items/p.cancelEvery + p.devices
	}
	if p.statsEvery > 0 {
		ops += ops/p.statsEvery + len(p.units)
	}
	return 4*ops + 3*items
}

// Indexes of tally.lat.
const (
	latAdmit = iota
	latAdvance
	latCancel
	latStats
	numLat
)

// tally is what the clients saw while running a plan.
type tally struct {
	ops, failed         int64
	submitted, accepted int64
	lat                 [numLat]hist
	firstErr            error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.submitted += o.submitted
	t.accepted += o.accepted
	for i := range t.lat {
		t.lat[i].merge(&o.lat[i])
	}
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// noteDone counts completions that missed their deadline as failures.
func (t *tally) noteDone(done []api.Completion) {
	for _, c := range done {
		if c.Missed {
			t.fail(fmt.Errorf("job %d missed its deadline at %v", c.JobID, c.At))
		}
	}
}

// run replays the plan against svc with one goroutine per client and
// returns when every client has its last reply. With rec set, each call
// is also recorded as a client-layer span. afterAdmit, when set, runs on
// the client goroutine after every admission reply.
func (p *plan) run(ctx context.Context, svc api.Service, rec *recorder, afterAdmit func(key uint64)) *tally {
	parts := make([]*tally, len(p.units))
	var wg sync.WaitGroup
	for w := range p.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = p.runClient(ctx, svc, w, rec, afterAdmit)
		}()
	}
	wg.Wait()
	total := new(tally)
	for _, t := range parts {
		total.merge(t)
	}
	return total
}

// deviceState is a client's bookkeeping for one device it owns.
type deviceState struct {
	ops     uint32 // ops sent, the low half of the span key
	units   int
	accepts int
	lastJob int // latest admission not yet cancelled; 0: none
}

// client is the state of one closed-loop client goroutine.
type client struct {
	tally
	rec        *recorder
	sinceStats int
}

// done closes the call started at start: it records the latency (and,
// when tracing, the client span) and returns the span key. d is nil for
// calls that address no device.
func (c *client) done(d *deviceState, dev, lat int, op opKind, n int, start time.Time, err error) uint64 {
	end := time.Now()
	key := noKey
	if d != nil {
		key = uint64(dev)<<32 | uint64(d.ops)
		d.ops++
	}
	c.lat[lat].observe(end.Sub(start))
	c.ops += int64(n)
	c.sinceStats += n
	if c.rec != nil {
		c.rec.add(layerClient, op, key, start, end, err != nil)
	}
	return key
}

func (p *plan) runClient(ctx context.Context, svc api.Service, w int, rec *recorder, afterAdmit func(key uint64)) *tally {
	c := &client{rec: rec}
	devs := make([]deviceState, p.devices)
	for _, u := range p.units[w] {
		d := &devs[u.device]
		accepts := d.accepts
		var key uint64
		if p.batch {
			start := time.Now()
			res, err := api.SubmitBatch(ctx, svc, api.BatchSubmitRequest{Device: u.device, At: u.at, Items: u.items})
			key = c.done(d, u.device, latAdmit, opBatch, len(u.items), start, err)
			if err != nil || len(res.Verdicts) != len(u.items) {
				c.fail(fmt.Errorf("submit-batch device %d at %v: %d of %d verdicts: %v", u.device, u.at, len(res.Verdicts), len(u.items), err))
				continue
			}
			c.noteDone(res.Completions)
			for _, v := range res.Verdicts {
				c.submitted++
				switch {
				case v.Accepted:
					c.accepted++
					d.accepts++
					d.lastJob = v.JobID
				case v.Error == nil || v.Error.Code != api.CodeInfeasible:
					c.fail(fmt.Errorf("submit-batch device %d at %v: verdict %v", u.device, u.at, v.Error))
				}
			}
		} else {
			it := u.items[0]
			start := time.Now()
			res, err := svc.Submit(ctx, api.SubmitRequest{Device: u.device, At: u.at, App: it.App, Deadline: it.Deadline})
			key = c.done(d, u.device, latAdmit, opSubmit, 1, start, err)
			c.noteDone(res.Completions)
			switch {
			case err == nil:
				c.submitted++
				c.accepted++
				d.accepts++
				d.lastJob = res.JobID
			case errors.Is(err, api.ErrInfeasible):
				c.submitted++
			default:
				c.fail(fmt.Errorf("submit device %d at %v: %w", u.device, u.at, err))
				continue // the device clock may not have moved; skip the follow-ups
			}
		}
		if afterAdmit != nil {
			afterAdmit(key)
		}
		d.units++
		if p.advanceEvery > 0 && d.units%p.advanceEvery == 0 {
			start := time.Now()
			res, err := svc.Advance(ctx, api.AdvanceRequest{Device: u.device, To: u.at})
			c.done(d, u.device, latAdvance, opAdvance, 1, start, err)
			c.noteDone(res.Completions)
			if err != nil {
				c.fail(fmt.Errorf("advance device %d to %v: %w", u.device, u.at, err))
			}
		}
		if p.cancelEvery > 0 && d.lastJob != 0 && d.accepts/p.cancelEvery > accepts/p.cancelEvery {
			job := d.lastJob
			d.lastJob = 0
			start := time.Now()
			_, err := svc.Cancel(ctx, api.CancelRequest{Device: u.device, JobID: job})
			c.done(d, u.device, latCancel, opCancel, 1, start, err)
			// ErrUnknownJob: the job already completed under an advance.
			if err != nil && !errors.Is(err, api.ErrUnknownJob) {
				c.fail(fmt.Errorf("cancel device %d job %d: %w", u.device, job, err))
			}
		}
		if p.statsEvery > 0 && c.sinceStats >= p.statsEvery {
			start := time.Now()
			_, err := svc.Stats(ctx, api.StatsRequest{})
			c.done(nil, 0, latStats, opStats, 1, start, err)
			c.sinceStats = 0
			if err != nil {
				c.fail(fmt.Errorf("stats: %w", err))
			}
		}
	}
	return &c.tally
}
