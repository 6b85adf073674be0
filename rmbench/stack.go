package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/router"
	"adaptrm/internal/sched"
)

// stack is one booted system under test. Every round boots a fresh one,
// so rounds repeat bit-exactly; shutdown tears it down in deployment
// order and reports what the teardown itself cost.
type stack struct {
	svc    api.Service // what the load generator calls
	fleets []*fleet.Fleet
	nodes  []*node
	edge   *listener
	idle   []*http.Transport
}

// node is one durable fleet daemon of the two-hop topology.
type node struct {
	fleet  *fleet.Fleet
	wal    *durable.Writer
	dir    string
	meta   durable.Meta
	listen *listener
}

// listener is an HTTP server on a loopback port of the kernel's choice.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *listener) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// deviceConfigs builds n devices on the paper's platform, one MMKP-MDF
// instance each. With a recorder every scheduler is wrapped to record
// its solves against the op index published in inflight.
func deviceConfigs(n int, plat platform.Platform, lib *opset.Library, rec *recorder, inflight []atomic.Uint32) []fleet.DeviceConfig {
	devs := make([]fleet.DeviceConfig, n)
	for i := range devs {
		var s sched.Scheduler = core.New()
		if rec != nil {
			s = &tracedSched{inner: s, rec: rec, dev: i, inflight: &inflight[i]}
		}
		devs[i] = fleet.DeviceConfig{Platform: plat, Library: lib, Scheduler: s}
	}
	return devs
}

// fleetService returns the fleet's service, behind a fleet-layer span
// wrapper when tracing.
func fleetService(f *fleet.Fleet, rec *recorder, inflight []atomic.Uint32) api.Service {
	if rec == nil {
		return f.Service()
	}
	t := newTracedService(f.Service(), rec, layerFleet, f.NumDevices())
	t.inflight = inflight
	return t
}

// bootFleet boots the in-process stack: one fleet, called directly.
func bootFleet(devices int, plat platform.Platform, lib *opset.Library, opt fleet.Options, rec *recorder) (*stack, error) {
	inflight := make([]atomic.Uint32, devices)
	f, err := fleet.New(deviceConfigs(devices, plat, lib, rec, inflight), opt)
	if err != nil {
		return nil, fmt.Errorf("boot fleet: %w", err)
	}
	return &stack{svc: fleetService(f, rec, inflight), fleets: []*fleet.Fleet{f}}, nil
}

// socketNodes is the node count of the two-hop topology.
const socketNodes = 2

// bootSocket boots the deployed topology: socketNodes durable fleet
// daemons, each tailed by a WAL writer under tmp and served over
// loopback HTTP, a consistent-hash router over HTTP clients to them
// behind an edge HTTP server, and an HTTP client to the edge.
func bootSocket(devices int, plat platform.Platform, lib *opset.Library, opt fleet.Options, tmp string, rec *recorder) (_ *stack, err error) {
	st := new(stack)
	defer func() {
		if err != nil {
			st.abort()
		}
	}()
	backends := make([]router.Backend, socketNodes)
	for i := range backends {
		n := &node{meta: durable.Meta{Devices: devices, Scheduler: "mdf", Cache: opt.Cache}}
		st.nodes = append(st.nodes, n)
		if n.dir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return nil, fmt.Errorf("boot node %d: data dir: %w", i, err)
		}
		state, err := durable.Open(n.dir, n.meta)
		if err != nil {
			return nil, fmt.Errorf("boot node %d: durable open: %w", i, err)
		}
		inflight := make([]atomic.Uint32, devices)
		if n.fleet, err = fleet.New(deviceConfigs(devices, plat, lib, rec, inflight), opt); err != nil {
			return nil, fmt.Errorf("boot node %d: fleet: %w", i, err)
		}
		st.fleets = append(st.fleets, n.fleet)
		if n.wal, err = durable.NewWriter(state, n.fleet, durable.Options{}); err != nil {
			return nil, fmt.Errorf("boot node %d: durable writer: %w", i, err)
		}
		h, err := httpapi.NewServer(fleetService(n.fleet, rec, inflight), httpapi.ServerOptions{WAL: n.wal})
		if err != nil {
			return nil, fmt.Errorf("boot node %d: httpapi server: %w", i, err)
		}
		if n.listen, err = serve(h); err != nil {
			return nil, fmt.Errorf("boot node %d: listen: %w", i, err)
		}
		var peer api.Service = httpapi.NewClient(n.listen.url, "", st.httpClient())
		if rec != nil {
			peer = newTracedService(peer, rec, layerNode, devices)
		}
		backends[i] = router.Backend{Name: n.listen.url, Service: peer}
	}
	rt, err := router.New(backends, nil)
	if err != nil {
		return nil, fmt.Errorf("boot router: %w", err)
	}
	var routed api.Service = rt
	if rec != nil {
		routed = newTracedService(rt, rec, layerEdge, devices)
	}
	h, err := httpapi.NewServer(routed, httpapi.ServerOptions{})
	if err != nil {
		return nil, fmt.Errorf("boot edge: httpapi server: %w", err)
	}
	if st.edge, err = serve(h); err != nil {
		return nil, fmt.Errorf("boot edge: listen: %w", err)
	}
	st.svc = httpapi.NewClient(st.edge.url, "", st.httpClient())
	return st, nil
}

// httpClient returns a client with its own keep-alive pool, closed with
// the stack.
func (st *stack) httpClient() *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	st.idle = append(st.idle, tr)
	return &http.Client{Transport: tr}
}

// closeFleets drains every fleet and returns the slowest drain.
func (st *stack) closeFleets() (time.Duration, error) {
	var worst time.Duration
	var errs []error
	for i, f := range st.fleets {
		start := time.Now()
		if err := f.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close fleet %d: %w", i, err))
		}
		worst = max(worst, time.Since(start))
	}
	return worst, errors.Join(errs...)
}

// closeWAL flushes every node's writer and returns the slowest flush.
// The fleets must be closed first.
func (st *stack) closeWAL() (time.Duration, error) {
	var worst time.Duration
	var errs []error
	for i, n := range st.nodes {
		start := time.Now()
		if err := n.wal.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close node %d WAL: %w", i, err))
		}
		worst = max(worst, time.Since(start))
	}
	return worst, errors.Join(errs...)
}

// release stops the servers, drops the idle connections and removes the
// data dirs. The fleets and writers must be closed first.
func (st *stack) release() error {
	var errs []error
	if st.edge != nil {
		errs = append(errs, st.edge.shutdown())
	}
	for _, n := range st.nodes {
		if n.listen != nil {
			errs = append(errs, n.listen.shutdown())
		}
		if n.dir != "" {
			errs = append(errs, os.RemoveAll(n.dir))
		}
	}
	for _, tr := range st.idle {
		tr.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// abort tears down a half-booted or failed stack, ignoring errors.
func (st *stack) abort() {
	for _, f := range st.fleets {
		_ = f.Close() // already failing; a second Close only reports "already closed"
	}
	for _, n := range st.nodes {
		if n.wal != nil {
			_ = n.wal.Close()
		}
	}
	_ = st.release()
}
