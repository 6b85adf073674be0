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
// stopping the daemon; the shutdown report includes quota-refusal
// totals when tenants are configured. -listen 127.0.0.1:0 picks a free
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
// documentation.
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
//	        [-resched] [-data-dir DIR [-fsync MODE]] [-v]
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
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"adaptrm/internal/control"
	"adaptrm/internal/dse"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
	"adaptrm/internal/flightlog"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/placement"
	"adaptrm/internal/platform"
	"adaptrm/internal/rm"
	"adaptrm/internal/router"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/schedreg"
	"adaptrm/internal/workload"
)

func main() {
	devices := flag.Int("devices", 8, "number of devices in the fleet")
	shards := flag.Int("shards", 4, "number of shard worker goroutines")
	schedName := flag.String("sched", "mdf", "scheduler: "+schedreg.Names())
	rate := flag.Float64("rate", 0.05, "base mean arrivals per second per device (replay mode)")
	spread := flag.Float64("spread", 0.5, "per-device rate heterogeneity in [0,1) (replay mode)")
	horizon := flag.Float64("horizon", 300, "trace duration in seconds (replay mode)")
	seed := flag.Int64("seed", 1, "trace seed (replay mode)")
	cache := flag.Bool("cache", true, "enable the per-device schedule cache")
	cacheSize := flag.Int("cache-size", schedcache.DefaultCapacity, "schedule-cache capacity per device")
	cacheSlack := flag.Float64("cache-slack", schedcache.DefaultSlackBucket, "relative slack bucket of the cache signature")
	cacheShared := flag.Bool("cache-shared", false, "back the per-device caches with one fleet-wide shared tier (cross-device reuse)")
	cacheWarm := flag.String("cache-warm", "", "load a warm shared-tier file (scripts/warm-cache.sh output) at start; implies -cache-shared")
	cacheWarmOut := flag.String("cache-warm-out", "", "save the shared tier to this file at shutdown; implies -cache-shared")
	refine := flag.Bool("refine", false, "enable anytime refinement: background exact searches swap strictly cheaper schedules into running devices")
	refineBudget := flag.Int64("refine-budget", 0, "node budget per background refinement search (0 = default)")
	refineWorkers := flag.Int("refine-workers", 1, "background refinement worker goroutines")
	mailbox := flag.Int("mailbox", 64, "per-shard mailbox size")
	batchWindow := flag.Float64("batch-window", 0, "coalesce queued same-device submits within this many seconds of virtual time into one batched activation (0 disables)")
	ctlEnable := flag.Bool("control", false, "attach the closed-loop degradation controller: adaptive batch window, heuristic-only fallback, load shedding under sustained queue pressure")
	ctlInterval := flag.Duration("control-interval", 200*time.Millisecond, "controller tick interval with -control")
	ctlMaxWindow := flag.Float64("control-max-window", 0, "ceiling the controller may stretch -batch-window to under pressure (0 disables window tuning)")
	ctlLatency := flag.Duration("control-high-latency", 0, "mean admission latency per tick that counts as overload with -control (0 = queue-depth signal only)")
	burst := flag.Int("burst", 0, "burst size: requests per arrival event (replay mode; ≤1 = plain Poisson)")
	burstWindow := flag.Float64("burst-window", 0, "spread of a burst's arrivals in seconds (replay mode; 0 = coincident)")
	resched := flag.Bool("resched", false, "re-run the scheduler at every job completion")
	eventHistory := flag.Int("event-history", 0, "per-device retained-event window for watch resumes (0 = default 1024)")
	dataDir := flag.String("data-dir", "", "persist the event log and snapshots in this directory and recover from it on start")
	fsyncMode := flag.String("fsync", "interval", "WAL fsync policy with -data-dir: always|interval|never")
	verbose := flag.Bool("v", false, "print per-device statistics")
	listen := flag.String("listen", "", "daemon mode: serve the fleet over HTTP on this address (e.g. :8080)")
	token := flag.String("token", "", "daemon mode: single-tenant bearer token (all devices, no quota)")
	tenantsPath := flag.String("tenants", "", "daemon mode: JSON tenant file (overrides -token)")
	quotaRate := flag.Float64("quota-rate", 0, "daemon mode: token-bucket rate for the -token tenant in mutating ops/sec (0 = unlimited)")
	quotaBurst := flag.Int("quota-burst", 0, "daemon mode: token-bucket burst for the -token tenant (0 = ceil(rate))")
	pprofToken := flag.String("pprof-token", "", "daemon mode: enable /debug/pprof/ behind this token (empty = profiling off)")
	flightlogSize := flag.Int("flightlog-size", flightlog.DefaultCapacity, "daemon mode: postmortem ring capacity (0 disables /debug/flightlog and the SIGQUIT dump)")
	route := flag.Bool("route", false, "router mode: serve a consistent-hash routing front-end over -peers instead of a local fleet (requires -listen)")
	peers := flag.String("peers", "", "router mode: comma-separated backend addresses (host:port or http://...)")
	ringReplicas := flag.Int("ring-replicas", 0, "router mode: virtual nodes per peer on the placement ring (0 = default)")
	ringSeed := flag.Uint64("ring-seed", 0, "router mode: placement-ring seed; all routers of a deployment must share it")
	peerToken := flag.String("peer-token", "", "router mode: bearer token the router presents to its backends")
	flag.Parse()

	if *route {
		serveRouter(routeConfig{
			listen: *listen, peers: *peers, peerToken: *peerToken,
			ringReplicas: *ringReplicas, ringSeed: *ringSeed,
			token: *token, tenantsPath: *tenantsPath,
			quotaRate: *quotaRate, quotaBurst: *quotaBurst,
			pprofToken: *pprofToken,
		})
		return
	}

	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		fatal(err)
	}

	devs := make([]fleet.DeviceConfig, *devices)
	for i := range devs {
		s, err := schedreg.New(*schedName)
		if err != nil {
			fatal(err)
		}
		devs[i] = fleet.DeviceConfig{Platform: plat, Library: lib, Scheduler: s}
		if *ctlEnable {
			// Degraded-mode fallback: a fresh per-device MDF instance,
			// outside any cache wrapping, so heuristic-only admission
			// costs exactly one heuristic solve.
			fb, err := schedreg.New("mdf")
			if err != nil {
				fatal(err)
			}
			devs[i].Fallback = fb
		}
	}
	opt := fleet.Options{
		Shards:        *shards,
		MailboxSize:   *mailbox,
		Manager:       rm.Options{RescheduleOnFinish: *resched},
		Cache:         *cache,
		CacheParams:   schedcache.Params{Capacity: *cacheSize, SlackBucket: *cacheSlack},
		BatchWindow:   *batchWindow,
		EventHistory:  *eventHistory,
		Refine:        *refine,
		RefineBudget:  *refineBudget,
		RefineWorkers: *refineWorkers,
	}
	var ctl *control.Controller
	if *ctlEnable {
		ctl = control.New(control.Config{
			BaseWindow:  *batchWindow,
			MaxWindow:   *ctlMaxWindow,
			HighLatency: *ctlLatency,
		})
		opt.Control = ctl
	}
	if *cacheWarm != "" || *cacheWarmOut != "" {
		*cacheShared = true
	}
	var shared *schedcache.Shared
	if *cacheShared {
		if !*cache {
			fatal(errors.New("-cache-shared requires -cache"))
		}
		shared = schedcache.NewShared()
		opt.SharedCache = shared
		if *cacheWarm != "" {
			wf, err := os.Open(*cacheWarm)
			if err != nil {
				fatal(err)
			}
			err = shared.Load(wf)
			wf.Close()
			if err != nil {
				fatal(fmt.Errorf("loading %s: %w", *cacheWarm, err))
			}
			ss := shared.Stats()
			fmt.Printf("cache warm: %d entries loaded from %s (%d exact, %d searched to completion, %d to budget)\n",
				ss.Loaded, *cacheWarm, ss.ExactEntries, ss.SearchedToCompletion, ss.SearchedToBudget)
		}
	}

	// With -data-dir the fleet is rebuilt from whatever the directory
	// holds — per-device snapshots plus the contiguous event-log tail,
	// replayed through the deterministic manager transitions — and a
	// writer then tails the live event streams back into it.
	var wal *durable.Writer
	f, walState, err := buildFleet(devs, opt, *dataDir, durable.Meta{
		Devices: *devices, Scheduler: *schedName, Cache: *cache, RescheduleOnFinish: *resched,
	})
	if err != nil {
		fatal(err)
	}
	if walState != nil {
		policy, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatal(err)
		}
		if wal, err = durable.NewWriter(walState, f, durable.Options{Fsync: policy}); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("platform:  %s\n", plat)
	fmt.Printf("fleet:     %d devices, %d shards, scheduler %s, cache %v\n",
		*devices, *shards, *schedName, *cache)
	if walState != nil {
		fmt.Printf("wal:       %s (fsync %s), recovered %d events, %d snapshots, %d torn bytes truncated\n",
			walState.Dir, *fsyncMode, walState.Events, walState.Snapshots, walState.TruncatedBytes)
	}
	stopTick := startController(ctl, *ctlInterval)
	if ctl != nil {
		fmt.Printf("control:   tick %v, window %g..%gs, latency signal %v\n",
			*ctlInterval, *batchWindow, *ctlMaxWindow, *ctlLatency)
	}

	if *listen != "" {
		serveDaemon(f, wal, daemonConfig{
			listen: *listen, token: *token, tenantsPath: *tenantsPath,
			quotaRate: *quotaRate, quotaBurst: *quotaBurst,
			pprofToken: *pprofToken, flightlogSize: *flightlogSize,
			cache: *cache, verbose: *verbose, devices: *devices,
			shared: shared, warmOut: *cacheWarmOut,
			stopTick: stopTick,
		})
		return
	}

	trace, err := workload.FleetTrace(lib, workload.FleetTraceParams{
		Devices: *devices, Rate: *rate, RateSpread: *spread,
		Horizon: *horizon, Seed: *seed,
		BurstSize: *burst, BurstWindow: *burstWindow,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace:     %d requests over %.0fs (rate %.3g/s ±%.0f%% per device, seed %d)\n\n",
		len(trace), *horizon, *rate, *spread*100, *seed)

	start := time.Now()
	if err := f.Replay(trace); err != nil {
		fatal(err)
	}
	stopTick()
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rmserve: device errors:", err)
	}
	closeWAL(wal)
	saveWarm(shared, *cacheWarmOut)
	report(f, time.Since(start), *cache, *verbose, false, *devices)
}

// startController drives the degradation controller from a wall-clock
// ticker until the returned stop function runs. Stop is called before
// Fleet.Close in every shutdown path: a tick's mode broadcast must not
// race the closing watch hub. With a nil controller both the goroutine
// and the stop are no-ops.
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
func saveWarm(shared *schedcache.Shared, path string) {
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
	fmt.Printf("cache warm: %d entries saved to %s\n", shared.Len(), path)
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
			return nil, nil, err
		}
	}
	return f, st, nil
}

// closeWAL flushes and closes the writer after the fleet's shutdown
// drain; call it after fleet.Close so the final completion events are
// persisted too.
func closeWAL(w *durable.Writer) {
	if w == nil {
		return
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rmserve: wal close:", err)
	}
}

// routeConfig bundles the router-mode settings.
type routeConfig struct {
	listen, peers, peerToken string
	ringReplicas             int
	ringSeed                 uint64
	token, tenantsPath       string
	quotaRate                float64
	quotaBurst               int
	pprofToken               string
}

// peerTimeout bounds how long a routed call waits for a peer node to
// answer before the peer counts as unavailable (HTTP 502 to the
// client). It is far above any admission a healthy node decides, so it
// only ends calls to a peer that hangs.
const peerTimeout = 30 * time.Second

// serveRouter runs the multi-node routing front-end: a consistent-hash
// ring over the -peers backends, served over the same HTTP protocol as
// a single node — clients cannot tell a router from a fleet, except
// for the extra adaptrm_router_* metric families on /metrics. The
// router holds no fleet state of its own; it ends on SIGINT/SIGTERM
// without any drain beyond the HTTP shutdown.
func serveRouter(cfg routeConfig) {
	if cfg.listen == "" {
		fatal(errors.New("-route requires -listen"))
	}
	var backends []router.Backend
	for _, p := range strings.Split(cfg.peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		base := p
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		backends = append(backends, router.Backend{
			Name: p, Service: httpapi.NewClient(base, cfg.peerToken, httpapi.NewPeerHTTPClient(peerTimeout)),
		})
	}
	if len(backends) == 0 {
		fatal(errors.New("-route requires -peers host:port,..."))
	}
	ring, err := placement.NewRing(placement.RingConfig{
		Owners: len(backends), Replicas: cfg.ringReplicas, Seed: cfg.ringSeed,
	})
	if err != nil {
		fatal(err)
	}
	rt, err := router.New(backends, ring)
	if err != nil {
		fatal(err)
	}

	var opt httpapi.ServerOptions
	switch {
	case cfg.tenantsPath != "":
		data, err := os.ReadFile(cfg.tenantsPath)
		if err != nil {
			fatal(err)
		}
		opt.Tenants, err = httpapi.ReadTenantsJSON(data)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("tenants:   %d configured from %s\n", len(opt.Tenants), cfg.tenantsPath)
	case cfg.token != "":
		opt.Tenants = []httpapi.Tenant{{Name: "default", Token: cfg.token, Rate: cfg.quotaRate, Burst: cfg.quotaBurst}}
		fmt.Println("tenants:   single default tenant (bearer token)")
	default:
		fmt.Println("tenants:   open access (no -token/-tenants)")
	}
	opt.PprofToken = cfg.pprofToken

	handler, err := httpapi.NewServer(rt, opt)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfgRing := ring.Config()
	fmt.Printf("router:    %d peers, ring %d replicas/peer seed %d\n",
		len(backends), cfgRing.Replicas, cfgRing.Seed)
	for i, b := range backends {
		fmt.Printf("peer %d:    %s\n", i, b.Name)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Printf("listening: %s (routing; POST /v1/submit /v1/submit-batch /v1/advance /v1/cancel, GET /v1/stats /v1/watch /healthz /metrics)\n",
		ln.Addr())

	select {
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "\nrmserve: router shutting down")
		handler.StopStreams()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "rmserve: shutdown:", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// daemonConfig bundles the daemon-mode settings.
type daemonConfig struct {
	listen, token, tenantsPath string
	quotaRate                  float64
	quotaBurst                 int
	pprofToken                 string
	flightlogSize              int
	cache, verbose             bool
	devices                    int
	shared                     *schedcache.Shared
	warmOut                    string
	// stopTick stops the degradation controller's ticker goroutine; the
	// daemon runs it before Fleet.Close (nil when -control is off).
	stopTick func()
}

// serveDaemon exposes the fleet over HTTP until SIGINT/SIGTERM, then
// drains it (and flushes the WAL writer, when persistence is on) and
// prints the final report.
func serveDaemon(f *fleet.Fleet, wal *durable.Writer, cfg daemonConfig) {
	var opt httpapi.ServerOptions
	switch {
	case cfg.tenantsPath != "":
		data, err := os.ReadFile(cfg.tenantsPath)
		if err != nil {
			fatal(err)
		}
		opt.Tenants, err = httpapi.ReadTenantsJSON(data)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("tenants:   %d configured from %s\n", len(opt.Tenants), cfg.tenantsPath)
	case cfg.token != "":
		opt.Tenants = []httpapi.Tenant{{Name: "default", Token: cfg.token, Rate: cfg.quotaRate, Burst: cfg.quotaBurst}}
		if cfg.quotaRate > 0 {
			fmt.Printf("tenants:   single default tenant (bearer token, %g ops/s rate quota)\n", cfg.quotaRate)
		} else {
			fmt.Println("tenants:   single default tenant (bearer token)")
		}
	default:
		fmt.Println("tenants:   open access (no -token/-tenants)")
	}
	opt.PprofToken = cfg.pprofToken
	if cfg.flightlogSize > 0 {
		opt.FlightLog = flightlog.New(cfg.flightlogSize)
	}
	if wal != nil {
		opt.WAL = wal
		if opt.FlightLog != nil {
			// The postmortem dump carries the WAL position: after a crash
			// the operator sees how far persistence trailed the fleet.
			opt.FlightLog.SetAux("wal", func() any { return wal.Status() })
		}
	}

	handler, err := httpapi.NewServer(f.Service(), opt)
	if err != nil {
		fatal(err)
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
	// An explicit listener (rather than ListenAndServe) resolves ":0"
	// to a concrete port before the "listening:" line is printed, so
	// scripts can bind to a free port and scrape the address.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opt.FlightLog != nil {
		// Tail the fleet's own event stream into the postmortem ring and
		// dump the ring to stderr on SIGQUIT, without stopping the
		// daemon. The tail ends when the fleet closes its watch streams.
		go func() {
			if err := flightlog.Tail(context.Background(), opt.FlightLog, f.Service()); err != nil {
				fmt.Fprintln(os.Stderr, "rmserve: flightlog tail:", err)
			}
		}()
		sigquit := make(chan os.Signal, 1)
		signal.Notify(sigquit, syscall.SIGQUIT)
		go func() {
			for range sigquit {
				fmt.Fprintln(os.Stderr, "rmserve: SIGQUIT flightlog dump")
				if err := opt.FlightLog.WriteJSON(os.Stderr, 0); err != nil {
					fmt.Fprintln(os.Stderr, "rmserve: flightlog dump:", err)
				}
				fmt.Fprintln(os.Stderr)
			}
		}()
	}

	errCh := make(chan error, 1)
	start := time.Now()
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Printf("listening: %s (POST /v1/submit /v1/submit-batch /v1/advance /v1/cancel, GET /v1/stats /v1/watch /healthz /metrics)\n",
		ln.Addr())

	select {
	case <-ctx.Done():
		// Restore default signal handling immediately: a second
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
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	if cfg.stopTick != nil {
		cfg.stopTick()
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rmserve: device errors:", err)
	}
	closeWAL(wal)
	saveWarm(cfg.shared, cfg.warmOut)
	report(f, time.Since(start), cfg.cache, cfg.verbose, true, cfg.devices)
	if len(opt.Tenants) > 0 {
		b, r := handler.QuotaRefusals()
		fmt.Printf("quotas:          %d refusals (%d budget, %d rate)\n", b+r, b, r)
	}
}

// report prints the aggregate fleet figures. daemon suppresses the
// requests/sec figure: wall clock is uptime there (mostly idle
// listening), not replay time, so a rate over it would be meaningless.
func report(f *fleet.Fleet, wall time.Duration, cache, verbose, daemon bool, devices int) {
	s := f.Stats()
	fmt.Println("fleet report")
	fmt.Println("------------")
	fmt.Printf("requests:        %d submitted, %d accepted, %d rejected (accept rate %.1f%%)\n",
		s.Submitted, s.Accepted, s.Rejected, 100*s.AcceptRate())
	fmt.Printf("completions:     %d jobs, %d deadline misses, %d cancelled\n", s.Completed, s.DeadlineMisses, s.Cancelled)
	fmt.Printf("energy:          %.2f J total, %.3f J/job\n", s.Energy, perJob(s.Energy, s.Completed))
	fmt.Printf("scheduler:       %d activations, %v wall time (%.1f µs/activation)\n",
		s.Activations, s.SchedulingTime.Round(time.Microsecond),
		perJob(float64(s.SchedulingTime.Microseconds()), s.Activations))
	if s.CoalescedBatches > 0 {
		fmt.Printf("batching:        %d submits coalesced into %d batched activations\n",
			s.CoalescedRequests, s.CoalescedBatches)
	}
	if cache {
		fmt.Printf("schedule cache:  %d hits / %d misses (%.1f%% hit rate, %d re-packs, %d stale, %d evictions)\n",
			s.CacheHits, s.CacheMisses, 100*s.CacheHitRate(), s.CacheRepacks, s.CacheStale, s.CacheEvictions)
	}
	if st := f.SharedTier(); st != nil {
		ss := st.Stats()
		fmt.Printf("shared tier:     %d entries (%d exact, %d searched to completion, %d to budget), %d hits, %d promotions (%d merge-dropped)\n",
			ss.Entries, ss.ExactEntries, ss.SearchedToCompletion, ss.SearchedToBudget,
			s.CacheSharedHits, s.CachePromotions, ss.PromotionsDropped)
	}
	if s.RefineSearches > 0 || s.Swaps > 0 {
		fmt.Printf("refinement:      %d searches, %d improved, %d swaps applied, %d skipped, %d dropped\n",
			s.RefineSearches, s.RefineImproved, s.Swaps, s.RefineSkipped, s.RefineDropped)
	}
	if s.ControlMode != "" {
		fmt.Printf("control:         mode %s, %d ticks, %d mode changes, %d shed\n",
			s.ControlMode, s.ControlTicks, s.ControlModeChanges, s.Shed)
	}
	if daemon {
		fmt.Printf("service:         %v uptime, max queue depth %d\n",
			wall.Round(time.Millisecond), s.MaxQueueDepth)
	} else {
		fmt.Printf("service:         %v wall clock, %.0f requests/sec, max queue depth %d\n",
			wall.Round(time.Millisecond), float64(s.Submitted)/wall.Seconds(), s.MaxQueueDepth)
	}

	if verbose {
		fmt.Println()
		fmt.Println("per-device")
		for d := 0; d < devices; d++ {
			ds, err := f.DeviceStats(d)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  dev %2d: %3d submitted, %3d accepted, %2d missed, %8.2f J\n",
				d, ds.Submitted, ds.Accepted, ds.DeadlineMisses, ds.Energy)
		}
	}
}

func perJob(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmserve:", err)
	os.Exit(1)
}
