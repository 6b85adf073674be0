// Command rmserve runs the fleet service in one of three modes: replay,
// daemon, or multi-node router.
//
// Replay mode (default): spin up M devices behind K shard workers,
// replay a generated multi-tenant request trace through the concurrent
// front-end, and print an aggregate fleet report — accept rate, energy,
// deadline misses, scheduler wall time, schedule-cache effectiveness and
// end-to-end throughput. It is the service-layer counterpart of
// cmd/rmsim's single-device simulation.
//
// Daemon mode (-listen): expose the same fleet as a JSON/HTTP service
// (package httpapi) implementing the transport-agnostic api.Service
// protocol — POST /v1/submit, /v1/advance, /v1/cancel, GET /v1/stats,
// GET /v1/watch (the device event stream as Server-Sent Events, with
// heartbeats and resume-from-sequence) and /healthz — with optional
// per-tenant bearer-token authentication, device authorisation and
// quotas of both kinds: a total request budget and a token-bucket rate
// (sustained ops/sec plus burst). The daemon shuts down gracefully on
// SIGINT/SIGTERM, drains every device and prints the same fleet report.
// Clients use httpapi.NewClient (or plain curl); the in-process fleet
// service and the HTTP client are behaviourally interchangeable,
// watches included.
//
// In daemon mode the server also exposes its observability surface:
// GET /metrics (Prometheus text format), GET /debug/flightlog (the
// bounded in-memory postmortem ring of recent requests and device
// events; -flightlog-size tunes the capacity, 0 disables), and — only
// with -pprof-token — the token-gated net/http/pprof routes under
// /debug/pprof/. SIGQUIT dumps the flightlog to stderr without
// stopping the daemon; the shutdown report's counters include the
// tenants' quota refusals. -listen 127.0.0.1:0 picks a free
// port; the resolved address is printed on the "listening:" line.
//
// With -data-dir the fleet is durable: a write-ahead event log plus
// periodic state snapshots persist in the directory (package durable),
// the process recovers from whatever it holds on start — printing a
// "wal:" recovery report — and a kill -9 loses at most the events not
// yet flushed under the chosen -fsync policy (always | interval |
// never). -event-history sizes the per-device retained-event window
// that both watch resumes and the WAL tail draw on. See the
// "Durability and recovery" section in internal/durable's package
// documentation. A start rmserve refuses — a bad flag value, an
// unreadable tenants file, a busy -listen address — exits before the
// data dir is touched.
//
// Router mode (-route -peers): serve the same HTTP protocol as a thin
// consistent-hash routing front-end over N backend daemons instead of
// a local fleet. Device-addressed calls go to the device's owner on a
// deterministic placement ring (internal/placement; -ring-replicas and
// -ring-seed parameterise it and must match across routers of one
// deployment), fleet-wide stats fan out and merge, watch streams merge
// per device, and an unreachable backend surfaces as the taxonomy's
// "unavailable" error (HTTP 502). /metrics additionally exports
// adaptrm_router_* families: per-peer request counters, error classes
// and latency histograms. Clients cannot otherwise tell a router from
// a single node.
//
// Usage:
//
//	rmserve [-devices M] [-shards K] [-sched mdf|lr|exmem|greedy|fixed|fixed-remap]
//	        [-rate R] [-spread S] [-horizon T] [-seed N]
//	        [-cache] [-cache-size N] [-cache-slack F] [-mailbox N]
//	        [-cache-shared] [-cache-warm FILE] [-cache-warm-out FILE]
//	        [-refine] [-refine-budget N] [-refine-workers K]
//	        [-control [-control-interval D] [-control-max-window F]
//	         [-control-high-latency D]]
//	        [-data-dir DIR [-fsync MODE]] [-v]
//	rmserve -listen :8080 [-token SECRET | -tenants FILE.json]
//	        [-quota-rate R [-quota-burst B]]
//	        [-pprof-token SECRET] [-flightlog-size N]
//	        [-data-dir DIR [-fsync MODE]] [-event-history N]
//	        [-devices M] [-shards K] [-sched NAME] [-cache] ...
//	rmserve -route -listen :8080 -peers host1:9001,host2:9002
//	        [-ring-replicas N] [-ring-seed N] [-peer-token SECRET]
//	        [-token SECRET | -tenants FILE.json] [-pprof-token SECRET]
//
// -quota-rate/-quota-burst attach a token bucket to the single -token
// tenant (the replay-mode -rate/-burst flags shape the generated trace,
// hence the distinct names). A tenants file carries the same settings
// per tenant as "rate"/"burst" keys:
//
//	[{"name":"acme","token":"s3cret","devices":[0,1],"max_requests":1000,
//	  "rate":50,"burst":100},
//	 {"name":"ops","token":"t0ken"}]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/dse"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
	"adaptrm/internal/flightlog"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/placement"
	"adaptrm/internal/platform"
	"adaptrm/internal/router"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/schedreg"
	"adaptrm/internal/workload"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err == nil {
		err = run(context.Background(), cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmserve:", err)
		os.Exit(1)
	}
}

// config is the validated command line: every flag, with the tenant
// flags resolved to a tenant list and the -cache-warm file read in.
type config struct {
	devices, shards, mailbox int
	sched                    string
	cache, cacheShared       bool
	cacheSize                int
	cacheSlack               float64
	warmIn, warmOut          string
	warm                     []byte // the contents of warmIn
	refine                   bool
	refineBudget             int64
	refineWorkers            int
	batchWindow              float64
	control                  bool
	ctlInterval, ctlLatency  time.Duration
	ctlMaxWindow             float64
	eventHistory             int
	dataDir                  string
	fsync                    durable.FsyncPolicy
	verbose                  bool

	// Replay mode: the generated trace.
	rate, spread, horizon, burstWindow float64
	seed                               int64
	burst                              int

	// Daemon and router mode. tenantsNote ends the "tenants:" line.
	listen, pprofToken string
	tenants            []httpapi.Tenant
	tenantsNote        string
	flightlogSize      int

	// Router mode.
	route        bool
	peers        []string
	ringReplicas int
	ringSeed     uint64
	peerToken    string
}

// parseConfig parses and checks args and reads the input files they
// name. It creates nothing: every rejection happens here or in run
// before the data dir is opened.
func parseConfig(args []string) (config, error) {
	var c config
	var fsync, token, tenantsPath, peers string
	var quotaRate float64
	var quotaBurst int
	fs := flag.NewFlagSet("rmserve", flag.ExitOnError)
	fs.IntVar(&c.devices, "devices", 8, "number of devices in the fleet")
	fs.IntVar(&c.shards, "shards", 4, "number of shard worker goroutines")
	fs.StringVar(&c.sched, "sched", "mdf", "scheduler: "+schedreg.Names())
	fs.Float64Var(&c.rate, "rate", 0.05, "base mean arrivals per second per device (replay mode)")
	fs.Float64Var(&c.spread, "spread", 0.5, "per-device rate heterogeneity in [0,1) (replay mode)")
	fs.Float64Var(&c.horizon, "horizon", 300, "trace duration in seconds (replay mode)")
	fs.Int64Var(&c.seed, "seed", 1, "trace seed (replay mode)")
	fs.BoolVar(&c.cache, "cache", true, "enable the per-device schedule cache")
	fs.IntVar(&c.cacheSize, "cache-size", schedcache.DefaultCapacity, "schedule-cache capacity per device")
	fs.Float64Var(&c.cacheSlack, "cache-slack", schedcache.DefaultSlackBucket, "relative slack bucket of the cache signature")
	fs.BoolVar(&c.cacheShared, "cache-shared", false, "back the per-device caches with one fleet-wide shared tier (cross-device reuse)")
	fs.StringVar(&c.warmIn, "cache-warm", "", "load a warm shared-tier file (scripts/warm-cache.sh output) at start; implies -cache-shared")
	fs.StringVar(&c.warmOut, "cache-warm-out", "", "save the shared tier to this file at shutdown; implies -cache-shared")
	fs.BoolVar(&c.refine, "refine", false, "enable anytime refinement: background exact searches swap strictly cheaper schedules into running devices")
	fs.Int64Var(&c.refineBudget, "refine-budget", 0, "node budget per background refinement search (0 = default)")
	fs.IntVar(&c.refineWorkers, "refine-workers", 1, "background refinement worker goroutines")
	fs.IntVar(&c.mailbox, "mailbox", 64, "per-shard mailbox size")
	fs.Float64Var(&c.batchWindow, "batch-window", 0, "coalesce queued same-device submits within this many seconds of virtual time into one batched activation (0 disables)")
	fs.BoolVar(&c.control, "control", false, "attach the closed-loop degradation controller: adaptive batch window, heuristic-only fallback, load shedding under sustained queue pressure")
	fs.DurationVar(&c.ctlInterval, "control-interval", 200*time.Millisecond, "controller tick interval with -control")
	fs.Float64Var(&c.ctlMaxWindow, "control-max-window", 0, "ceiling the controller may stretch -batch-window to under pressure (0 disables window tuning)")
	fs.DurationVar(&c.ctlLatency, "control-high-latency", 0, "mean admission latency per tick that counts as overload with -control (0 = queue-depth signal only)")
	fs.IntVar(&c.burst, "burst", 0, "burst size: requests per arrival event (replay mode; ≤1 = plain Poisson)")
	fs.Float64Var(&c.burstWindow, "burst-window", 0, "spread of a burst's arrivals in seconds (replay mode; 0 = coincident)")
	fs.IntVar(&c.eventHistory, "event-history", 0, "per-device retained-event window for watch resumes (0 = default 1024)")
	fs.StringVar(&c.dataDir, "data-dir", "", "persist the event log and snapshots in this directory and recover from it on start")
	fs.StringVar(&fsync, "fsync", "interval", "WAL fsync policy with -data-dir: always|interval|never")
	fs.BoolVar(&c.verbose, "v", false, "print per-device statistics")
	fs.StringVar(&c.listen, "listen", "", "daemon mode: serve the fleet over HTTP on this address (e.g. :8080)")
	fs.StringVar(&token, "token", "", "daemon mode: single-tenant bearer token (all devices, no quota)")
	fs.StringVar(&tenantsPath, "tenants", "", "daemon mode: JSON tenant file (overrides -token)")
	fs.Float64Var(&quotaRate, "quota-rate", 0, "daemon mode: token-bucket rate for the -token tenant in mutating ops/sec (0 = unlimited)")
	fs.IntVar(&quotaBurst, "quota-burst", 0, "daemon mode: token-bucket burst for the -token tenant (0 = ceil(rate))")
	fs.StringVar(&c.pprofToken, "pprof-token", "", "daemon mode: enable /debug/pprof/ behind this token (empty = profiling off)")
	fs.IntVar(&c.flightlogSize, "flightlog-size", flightlog.DefaultCapacity, "daemon mode: postmortem ring capacity (0 disables /debug/flightlog and the SIGQUIT dump)")
	fs.BoolVar(&c.route, "route", false, "router mode: serve a consistent-hash routing front-end over -peers instead of a local fleet (requires -listen)")
	fs.StringVar(&peers, "peers", "", "router mode: comma-separated backend addresses (host:port or http://...)")
	fs.IntVar(&c.ringReplicas, "ring-replicas", 0, "router mode: virtual nodes per peer on the placement ring (0 = default)")
	fs.Uint64Var(&c.ringSeed, "ring-seed", 0, "router mode: placement-ring seed; all routers of a deployment must share it")
	fs.StringVar(&c.peerToken, "peer-token", "", "router mode: bearer token the router presents to its backends")
	fs.Parse(args) // ExitOnError: a malformed flag exits 2 here

	switch {
	case tenantsPath != "":
		data, err := os.ReadFile(tenantsPath)
		if err != nil {
			return c, err
		}
		if c.tenants, err = httpapi.ReadTenantsJSON(data); err != nil {
			return c, fmt.Errorf("%s: %w", tenantsPath, err)
		}
		c.tenantsNote = fmt.Sprintf("%d configured from %s", len(c.tenants), tenantsPath)
	case token != "":
		if quotaRate < 0 || quotaBurst < 0 {
			return c, errors.New("-quota-rate and -quota-burst must not be negative")
		}
		c.tenants = []httpapi.Tenant{{Name: "default", Token: token, Rate: quotaRate, Burst: quotaBurst}}
		c.tenantsNote = "single default tenant (bearer token)"
		if quotaRate > 0 {
			c.tenantsNote = fmt.Sprintf("single default tenant (bearer token, %g ops/s rate quota)", quotaRate)
		}
	default:
		c.tenantsNote = "open access (no -token/-tenants)"
	}
	for _, name := range []string{"cache-size", "cache-slack", "mailbox", "batch-window", "event-history", "flightlog-size", "ring-replicas"} {
		if v, _ := strconv.ParseFloat(fs.Lookup(name).Value.String(), 64); !(v >= 0) {
			return c, fmt.Errorf("-%s %s: want a non-negative number", name, fs.Lookup(name).Value)
		}
	}
	if c.route {
		if c.listen == "" {
			return c, errors.New("-route requires -listen")
		}
		for _, p := range strings.Split(peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				c.peers = append(c.peers, p)
			}
		}
		if len(c.peers) == 0 {
			return c, errors.New("-route requires -peers host:port,...")
		}
		return c, nil
	}

	if c.devices <= 0 {
		return c, fmt.Errorf("-devices %d: need at least one device", c.devices)
	}
	if c.shards <= 0 {
		return c, fmt.Errorf("-shards %d: need at least one shard", c.shards)
	}
	if c.control && c.ctlInterval <= 0 {
		return c, fmt.Errorf("-control-interval %v: want a positive interval", c.ctlInterval)
	}
	if _, err := schedreg.New(c.sched); err != nil {
		return c, err
	}
	var err error
	if c.fsync, err = durable.ParseFsyncPolicy(fsync); err != nil {
		return c, err
	}
	if c.warmIn != "" || c.warmOut != "" {
		c.cacheShared = true
	}
	if c.cacheShared && !c.cache {
		return c, errors.New("-cache-shared requires -cache")
	}
	if c.warmIn != "" {
		if c.warm, err = os.ReadFile(c.warmIn); err != nil {
			return c, err
		}
	}
	return c, nil
}

// run boots what cfg describes — a trace replay, a node daemon or a
// router — and returns when the replay is through or, for a daemon,
// when ctx ends or SIGINT/SIGTERM arrives. It binds the listener first
// and opens the data dir last, so that a start it refuses leaves the
// data dir as it found it.
func run(ctx context.Context, cfg config, stdout io.Writer) error {
	var ln net.Listener
	if cfg.listen != "" {
		var err error
		if ln, err = net.Listen("tcp", cfg.listen); err != nil {
			return err
		}
		defer ln.Close()
	}
	if cfg.route {
		return runRouter(ctx, cfg, ln, stdout)
	}
	return runNode(ctx, cfg, ln, stdout)
}

// peerTimeout bounds how long a routed call waits for a peer node to
// answer before the peer counts as unavailable (HTTP 502 to the
// client). It is far above any admission a healthy node decides, so it
// only ends calls to a peer that hangs.
const peerTimeout = 30 * time.Second

// runRouter serves a consistent-hash ring over the -peers backends
// through the same HTTP protocol as a single node — clients cannot
// tell a router from a fleet, except for the extra adaptrm_router_*
// metric families on /metrics. The router holds no fleet state of its
// own, so nothing drains after the HTTP shutdown.
func runRouter(ctx context.Context, cfg config, ln net.Listener, stdout io.Writer) error {
	backends := make([]router.Backend, len(cfg.peers))
	for i, p := range cfg.peers {
		base := p
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		backends[i] = router.Backend{
			Name: p, Service: httpapi.NewClient(base, cfg.peerToken, httpapi.NewPeerHTTPClient(peerTimeout)),
		}
	}
	ring, err := placement.NewRing(placement.RingConfig{
		Owners: len(backends), Replicas: cfg.ringReplicas, Seed: cfg.ringSeed,
	})
	if err != nil {
		return err
	}
	rt, err := router.New(backends, ring)
	if err != nil {
		return err
	}
	rc := ring.Config()
	fmt.Fprintf(stdout, "router:    %d peers, ring %d replicas/peer seed %d\n", len(backends), rc.Replicas, rc.Seed)
	for i, b := range backends {
		fmt.Fprintf(stdout, "peer %d:    %s\n", i, b.Name)
	}
	_, err = serveHTTP(ctx, ln, rt, httpapi.ServerOptions{}, cfg, stdout, "routing; ")
	return err
}

// runNode builds the fleet — fresh, or recovered from -data-dir — and
// either replays a generated trace through it or, with a listener,
// serves it until shutdown. Either way it then drains the fleet,
// closes the WAL writer, saves the warm file and prints the report.
func runNode(ctx context.Context, cfg config, ln net.Listener, stdout io.Writer) error {
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		return err
	}
	devs := make([]fleet.DeviceConfig, cfg.devices)
	for i := range devs {
		s, err := schedreg.New(cfg.sched)
		if err != nil {
			return err
		}
		devs[i] = fleet.DeviceConfig{Platform: plat, Library: lib, Scheduler: s}
		if cfg.control {
			// Degraded-mode fallback: a fresh per-device MDF instance,
			// outside any cache wrapping, so heuristic-only admission
			// costs exactly one heuristic solve.
			if devs[i].Fallback, err = schedreg.New("mdf"); err != nil {
				return err
			}
		}
	}
	opt := fleet.Options{
		Shards:        cfg.shards,
		MailboxSize:   cfg.mailbox,
		Cache:         cfg.cache,
		CacheParams:   schedcache.Params{Capacity: cfg.cacheSize, SlackBucket: cfg.cacheSlack},
		BatchWindow:   cfg.batchWindow,
		EventHistory:  cfg.eventHistory,
		Refine:        cfg.refine,
		RefineBudget:  cfg.refineBudget,
		RefineWorkers: cfg.refineWorkers,
	}
	var ctl *control.Controller
	if cfg.control {
		ctl = control.New(control.Config{
			BaseWindow:  cfg.batchWindow,
			MaxWindow:   cfg.ctlMaxWindow,
			HighLatency: cfg.ctlLatency,
		})
		opt.Control = ctl
	}
	var shared *schedcache.Shared
	if cfg.cacheShared {
		shared = schedcache.NewShared()
		opt.SharedCache = shared
		if cfg.warmIn != "" {
			if err := shared.Load(bytes.NewReader(cfg.warm)); err != nil {
				return fmt.Errorf("loading %s: %w", cfg.warmIn, err)
			}
			ss := shared.Stats()
			fmt.Fprintf(stdout, "cache warm: %d entries loaded from %s (%d exact, %d searched to completion, %d to budget)\n",
				ss.Loaded, cfg.warmIn, ss.ExactEntries, ss.SearchedToCompletion, ss.SearchedToBudget)
		}
	}
	// Replay mode generates its trace before the data dir opens, so a
	// trace parameter it refuses leaves the dir untouched too.
	var trace []workload.FleetRequest
	if ln == nil {
		trace, err = workload.FleetTrace(lib, workload.FleetTraceParams{
			Devices: cfg.devices, Rate: cfg.rate, RateSpread: cfg.spread,
			Horizon: cfg.horizon, Seed: cfg.seed,
			BurstSize: cfg.burst, BurstWindow: cfg.burstWindow,
		})
		if err != nil {
			return err
		}
	}

	// With -data-dir the fleet is rebuilt from whatever the directory
	// holds — per-device snapshots plus the contiguous event-log tail,
	// replayed through the deterministic manager transitions — and a
	// writer then tails the live event streams back into it.
	f, walState, err := buildFleet(devs, opt, cfg.dataDir, durable.Meta{
		Devices: cfg.devices, Scheduler: cfg.sched, Cache: cfg.cache,
	})
	if err != nil {
		return err
	}
	var wal *durable.Writer
	if walState != nil {
		if wal, err = durable.NewWriter(walState, f, durable.Options{Fsync: cfg.fsync}); err != nil {
			return errors.Join(err, f.Close())
		}
	}

	fmt.Fprintf(stdout, "platform:  %s\n", plat)
	fmt.Fprintf(stdout, "fleet:     %d devices, %d shards, scheduler %s, cache %v\n",
		cfg.devices, cfg.shards, cfg.sched, cfg.cache)
	if walState != nil {
		fmt.Fprintf(stdout, "wal:       %s (fsync %s), recovered %d events, %d snapshots, %d torn bytes truncated\n",
			walState.Dir, cfg.fsync, walState.Events, walState.Snapshots, walState.TruncatedBytes)
	}
	stopTick := startController(ctl, cfg.ctlInterval)
	if ctl != nil {
		fmt.Fprintf(stdout, "control:   tick %v, window %g..%gs, latency signal %v\n",
			cfg.ctlInterval, cfg.batchWindow, cfg.ctlMaxWindow, cfg.ctlLatency)
	}

	start := time.Now()
	var srv *httpapi.Server
	if ln != nil {
		srv, err = serveHTTP(ctx, ln, f.Service(), nodeOptions(f, wal, cfg), cfg, stdout, "")
	} else {
		fmt.Fprintf(stdout, "trace:     %d requests over %.0fs (rate %.3g/s ±%.0f%% per device, seed %d)\n\n",
			len(trace), cfg.horizon, cfg.rate, cfg.spread*100, cfg.seed)
		err = f.Replay(trace)
	}
	wall := time.Since(start)
	// Stop the controller before the fleet closes: a tick's mode
	// broadcast must not race the closing watch hub. The writer closes
	// after the fleet, so the final completion events persist too.
	stopTick()
	if cerr := f.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "rmserve: device errors:", cerr)
	}
	if wal != nil {
		if cerr := wal.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "rmserve: wal close:", cerr)
		}
	}
	if err != nil {
		return err
	}
	saveWarm(stdout, shared, cfg.warmOut)

	s, err := f.Service().Stats(ctx, api.StatsRequest{})
	if err != nil {
		return err
	}
	if srv != nil {
		b, r := srv.QuotaRefusals()
		s.QuotaBudgetRefusals, s.QuotaRateRefusals = int(b), int(r)
	}
	return report(stdout, f, s, wall, cfg, ln != nil)
}

// nodeOptions sets up a node's observability: the WAL position on
// /metrics, and the flightlog ring, fed by the fleet's own event stream
// and dumped to stderr on SIGQUIT without stopping the daemon. Both
// goroutines end when the fleet closes its watch streams.
func nodeOptions(f *fleet.Fleet, wal *durable.Writer, cfg config) httpapi.ServerOptions {
	var opt httpapi.ServerOptions
	if wal != nil {
		opt.WAL = wal
	}
	if cfg.flightlogSize <= 0 {
		return opt
	}
	fl := flightlog.New(cfg.flightlogSize)
	opt.FlightLog = fl
	if wal != nil {
		// After a crash the operator sees how far persistence trailed
		// the fleet.
		fl.SetAux("wal", func() any { return wal.Status() })
	}
	tailed := make(chan struct{})
	go func() {
		defer close(tailed)
		if err := flightlog.Tail(context.Background(), fl, f.Service()); err != nil {
			fmt.Fprintln(os.Stderr, "rmserve: flightlog tail:", err)
		}
	}()
	sigquit := make(chan os.Signal, 1)
	signal.Notify(sigquit, syscall.SIGQUIT)
	go func() {
		defer signal.Stop(sigquit)
		for {
			select {
			case <-tailed:
				return
			case <-sigquit:
				fmt.Fprintln(os.Stderr, "rmserve: SIGQUIT flightlog dump")
				if err := fl.WriteJSON(os.Stderr, 0); err != nil {
					fmt.Fprintln(os.Stderr, "rmserve: flightlog dump:", err)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}()
	return opt
}

// serveHTTP serves svc on ln until ctx ends or SIGINT/SIGTERM arrives,
// then ends the watch streams and drains the in-flight requests. It
// returns the handler for its quota counters.
func serveHTTP(ctx context.Context, ln net.Listener, svc api.Service, opt httpapi.ServerOptions, cfg config, stdout io.Writer, mode string) (*httpapi.Server, error) {
	fmt.Fprintf(stdout, "tenants:   %s\n", cfg.tenantsNote)
	opt.Tenants = cfg.tenants
	opt.PprofToken = cfg.pprofToken
	handler, err := httpapi.NewServer(svc, opt)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler: handler,
		// A network daemon needs bounds against slow or hostile
		// clients; requests themselves are small (the request body is
		// capped inside the handler).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	// The address is the bound one, so -listen 127.0.0.1:0 reports the
	// port it got.
	fmt.Fprintf(stdout, "listening: %s (%sPOST /v1/submit /v1/submit-batch /v1/advance /v1/cancel, GET /v1/stats /v1/watch /healthz /metrics)\n",
		ln.Addr(), mode)

	select {
	case <-ctx.Done():
		// Restore default signal handling at once: a second
		// SIGINT/SIGTERM during a stuck drain must still kill us.
		stop()
		fmt.Fprintln(os.Stderr, "\nrmserve: shutting down")
		// End only the watch streams — they never go idle, so Shutdown
		// would otherwise wait its whole deadline for them; in-flight
		// short-lived requests still drain normally.
		handler.StopStreams()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "rmserve: shutdown:", err)
		}
		return handler, nil
	case err := <-errCh:
		return handler, err
	}
}

// startController drives the degradation controller from a wall-clock
// ticker until the returned stop function runs. With a nil controller
// both the goroutine and the stop are no-ops.
func startController(ctl *control.Controller, interval time.Duration) (stop func()) {
	if ctl == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	epoch := time.Now()
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				ctl.Tick(now.Sub(epoch).Seconds())
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }
}

// saveWarm persists the shared cache tier after the drain, so the next
// process (or a benchmark run) starts warm instead of cold.
func saveWarm(stdout io.Writer, shared *schedcache.Shared, path string) {
	if shared == nil || path == "" {
		return
	}
	wf, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmserve: cache-warm-out:", err)
		return
	}
	err = shared.Save(wf)
	if cerr := wf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmserve: cache-warm-out:", err)
		return
	}
	fmt.Fprintf(stdout, "cache warm: %d entries saved to %s\n", shared.Len(), path)
}

// buildFleet constructs the fleet — fresh, or recovered from dataDir
// when one is given. The returned state is nil without a data dir.
func buildFleet(devs []fleet.DeviceConfig, opt fleet.Options, dataDir string, meta durable.Meta) (*fleet.Fleet, *durable.State, error) {
	if dataDir == "" {
		f, err := fleet.New(devs, opt)
		return f, nil, err
	}
	st, err := durable.Open(dataDir, meta)
	if err != nil {
		return nil, nil, err
	}
	rec := make(map[int]fleet.DeviceRecovery, len(st.Devices))
	for dev, ds := range st.Devices {
		rec[dev] = fleet.DeviceRecovery{Snapshot: ds.Snapshot, Events: ds.Events}
	}
	f, results, err := fleet.Recover(devs, opt, rec)
	if err != nil {
		return nil, nil, err
	}
	// Replay may have dropped a trailing partial unit (a torn tail cut
	// mid-operation); cut the physical log to the same point so the
	// writer's appends continue gap-free from the recovered sequence.
	for dev, res := range results {
		if err := st.Truncate(dev, res.AppliedSeq); err != nil {
			return nil, nil, errors.Join(err, f.Close())
		}
	}
	return f, st, nil
}

// report prints the final figures: a headline, then every nonzero
// counter of s in api.Counters order. A daemon reports its uptime, not
// a request rate: its wall clock is mostly idle listening.
func report(w io.Writer, f *fleet.Fleet, s api.StatsResult, wall time.Duration, cfg config, daemon bool) error {
	fmt.Fprintln(w, "fleet report")
	fmt.Fprintln(w, "------------")
	fmt.Fprintf(w, "accept rate:     %.1f%% (%d of %d submitted)\n",
		100*per(float64(s.Accepted), s.Submitted), s.Accepted, s.Submitted)
	fmt.Fprintf(w, "energy:          %.2f J total, %.3f J/job\n", s.Energy, per(s.Energy, s.Completed))
	fmt.Fprintf(w, "scheduler:       %v wall time (%.1f µs/activation)\n",
		s.SchedulingTime.Round(time.Microsecond), per(float64(s.SchedulingTime.Microseconds()), s.Activations))
	if s.ControlMode != "" {
		fmt.Fprintf(w, "control:         mode %s\n", s.ControlMode)
	}
	if st := f.SharedTier(); st != nil {
		ss := st.Stats()
		fmt.Fprintf(w, "shared tier:     %d entries (%d exact, %d searched to completion, %d to budget), %d merge-dropped\n",
			ss.Entries, ss.ExactEntries, ss.SearchedToCompletion, ss.SearchedToBudget, ss.PromotionsDropped)
	}
	if daemon {
		fmt.Fprintf(w, "service:         %v uptime\n", wall.Round(time.Millisecond))
	} else {
		fmt.Fprintf(w, "service:         %v wall clock, %.0f requests/sec\n",
			wall.Round(time.Millisecond), float64(s.Submitted)/wall.Seconds())
	}
	fmt.Fprintln(w, "counters:")
	for _, c := range api.Counters {
		if v := c.Value(&s); v != 0 {
			fmt.Fprintf(w, "  %-20s %d\n", c.Name, v)
		}
	}

	if cfg.verbose {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "per-device")
		for d := 0; d < cfg.devices; d++ {
			ds, err := f.DeviceStats(d)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  dev %2d: %3d submitted, %3d accepted, %2d missed, %8.2f J\n",
				d, ds.Submitted, ds.Accepted, ds.DeadlineMisses, ds.Energy)
		}
	}
	return nil
}

// per returns total/n, or 0 for n = 0.
func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
