package httpapi_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/fleet"
	"adaptrm/internal/flightlog"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/motiv"
	"adaptrm/internal/workload"
)

// ---- a small Prometheus text-format parser for the tests ----

type promSample struct {
	name   string
	labels map[string]string
	raw    string // the value token exactly as exported
	value  float64
}

// series is the canonical identity of one sample: name plus sorted
// label pairs.
func (s promSample) series() string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, s.labels[k])
	}
	return b.String()
}

type promScrape struct {
	types   map[string]string // family → counter|gauge|histogram
	helps   map[string]string
	samples []promSample
	series  map[string]promSample
}

// familyOf maps a sample name to its TYPE-carrying family: histogram
// samples use the base name suffixed with _bucket/_sum/_count.
func (p *promScrape) familyOf(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && p.types[base] == "histogram" {
			return base
		}
	}
	return name
}

// parsePrometheus parses the text exposition format strictly enough to
// catch malformed output: unknown line shapes, bad escapes, unparsable
// values and duplicate series all fail the test.
func parsePrometheus(t *testing.T, body string) *promScrape {
	t.Helper()
	p := &promScrape{
		types:  make(map[string]string),
		helps:  make(map[string]string),
		series: make(map[string]promSample),
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			p.helps[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without type: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, typ)
			}
			if _, dup := p.types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			p.types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment shape: %q", ln+1, line)
		}
		s := parseSampleLine(t, ln+1, line)
		if _, dup := p.series[s.series()]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, s.series())
		}
		p.samples = append(p.samples, s)
		p.series[s.series()] = s
	}
	return p
}

func parseSampleLine(t *testing.T, ln int, line string) promSample {
	t.Helper()
	i := 0
	for i < len(line) && (line[i] == '_' || line[i] == ':' ||
		(line[i] >= 'a' && line[i] <= 'z') || (line[i] >= 'A' && line[i] <= 'Z') ||
		(i > 0 && line[i] >= '0' && line[i] <= '9')) {
		i++
	}
	if i == 0 {
		t.Fatalf("line %d: no metric name: %q", ln, line)
	}
	s := promSample{name: line[:i], labels: map[string]string{}}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		for j := 1; j < len(rest); j++ {
			if rest[j] == '"' { // skip quoted strings (may contain '}')
				j++
				for j < len(rest) && rest[j] != '"' {
					if rest[j] == '\\' {
						j++
					}
					j++
				}
				continue
			}
			if rest[j] == '}' {
				end = j
				break
			}
		}
		if end < 0 {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		for _, pair := range splitLabelPairs(t, ln, rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: malformed label %q", ln, pair)
			}
			s.labels[k] = unescapeLabel(t, ln, v[1:len(v)-1])
		}
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		t.Fatalf("line %d: no space before value: %q", ln, line)
	}
	s.raw = rest[1:]
	v, err := strconv.ParseFloat(s.raw, 64)
	if err != nil {
		t.Fatalf("line %d: unparsable value %q: %v", ln, s.raw, err)
	}
	s.value = v
	return s
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(t *testing.T, ln int, s string) []string {
	t.Helper()
	var out []string
	start, inq := 0, false
	for i := 0; i < len(s); i++ {
		switch {
		case inq && s[i] == '\\':
			i++
		case s[i] == '"':
			inq = !inq
		case !inq && s[i] == ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if inq {
		t.Fatalf("line %d: unterminated quote in labels %q", ln, s)
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func unescapeLabel(t *testing.T, ln int, s string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			t.Fatalf("line %d: dangling escape in label value %q", ln, s)
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			t.Fatalf("line %d: invalid escape \\%c in label value %q", ln, s[i], s)
		}
	}
	return b.String()
}

// scrapeMetrics fetches /metrics and parses it.
func scrapeMetrics(t *testing.T, url, token string) *promScrape {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	return parsePrometheus(t, string(body))
}

// TestMetricsPrometheusValidity drives a deterministic trace and then
// holds two consecutive scrapes to the format rules: every sample under
// a declared TYPE, labels well-formed (including escaping of a hostile
// tenant name), histogram buckets cumulative and reconciling with
// _count, and every counter monotone between the scrapes.
func TestMetricsPrometheusValidity(t *testing.T) {
	const devices = 2
	const weird = "we\"ird\\te\nnant"
	f := newFleet(t, devices, fleet.Options{Shards: 2})
	defer f.Close()
	srv := mustServer(t, f.Service(), httpapi.ServerOptions{Tenants: []httpapi.Tenant{
		{Name: "ops", Token: "tok-ops"},
		{Name: weird, Token: "tok-weird", MaxRequests: 1},
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: 60, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := httpapi.NewClient(ts.URL, "tok-ops", ts.Client())
	drive(t, client, trace, devices, 60)
	// Spend the weird tenant's one-request budget and refuse a second,
	// so its hostile name reaches the quota-refusal labels.
	wc := httpapi.NewClient(ts.URL, "tok-weird", ts.Client())
	if _, err := wc.Advance(bg, api.AdvanceRequest{Device: 0, To: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Advance(bg, api.AdvanceRequest{Device: 0, To: 1001}); !strings.Contains(codeOf(err), api.CodeQuotaExceeded) {
		t.Fatalf("expected quota refusal, got %v", err)
	}

	first := scrapeMetrics(t, ts.URL, "")
	second := scrapeMetrics(t, ts.URL, "")

	for _, p := range []*promScrape{first, second} {
		for _, s := range p.samples {
			fam := p.familyOf(s.name)
			if p.types[fam] == "" {
				t.Errorf("sample %q has no TYPE declaration", s.name)
			}
			if p.helps[fam] == "" {
				t.Errorf("family %q has no HELP", fam)
			}
		}
		// Histogram invariants per label set.
		checkHistograms(t, p)
	}

	// The hostile tenant name survives the escaping round trip.
	found := false
	for _, s := range second.samples {
		if s.name == "adaptrm_quota_refusals_total" && s.labels["tenant"] == weird {
			found = true
			if s.labels["kind"] == "budget" && s.value != 1 {
				t.Errorf("weird tenant budget refusals = %v, want 1", s.value)
			}
		}
	}
	if !found {
		t.Error("quota refusal series for the escaped tenant name not found")
	}

	// Counters never move backwards between scrapes.
	for key, s1 := range first.series {
		if first.types[first.familyOf(s1.name)] != "counter" {
			continue
		}
		s2, ok := second.series[key]
		if !ok {
			t.Errorf("counter series %q disappeared on rescrape", key)
			continue
		}
		if s2.value < s1.value {
			t.Errorf("counter %q went backwards: %v → %v", key, s1.value, s2.value)
		}
	}
}

// checkHistograms verifies cumulative bucket ordering and the
// bucket/_count/_sum reconciliation of every exported histogram.
func checkHistograms(t *testing.T, p *promScrape) {
	t.Helper()
	type hist struct {
		buckets map[float64]float64 // le → cumulative
		count   float64
		hasInf  bool
	}
	hists := map[string]*hist{}
	keyOf := func(s promSample) string {
		labels := make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			if k != "le" {
				labels[k] = v
			}
		}
		return promSample{name: p.familyOf(s.name), labels: labels}.series()
	}
	get := func(k string) *hist {
		if hists[k] == nil {
			hists[k] = &hist{buckets: map[float64]float64{}}
		}
		return hists[k]
	}
	for _, s := range p.samples {
		fam := p.familyOf(s.name)
		if p.types[fam] != "histogram" {
			continue
		}
		h := get(keyOf(s))
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			raw, ok := s.labels["le"]
			if !ok {
				t.Fatalf("histogram bucket %q without le label", s.series())
			}
			le, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatalf("unparsable le %q: %v", raw, err)
			}
			if math.IsInf(le, 1) {
				h.hasInf = true
			}
			h.buckets[le] = s.value
		case strings.HasSuffix(s.name, "_count"):
			h.count = s.value
		}
	}
	for key, h := range hists {
		if !h.hasInf {
			t.Errorf("histogram %q has no +Inf bucket", key)
			continue
		}
		les := make([]float64, 0, len(h.buckets))
		for le := range h.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := -1.0
		for _, le := range les {
			if h.buckets[le] < prev {
				t.Errorf("histogram %q bucket le=%v not cumulative (%v < %v)", key, le, h.buckets[le], prev)
			}
			prev = h.buckets[le]
		}
		if inf := h.buckets[math.Inf(1)]; inf != h.count {
			t.Errorf("histogram %q: +Inf bucket %v != _count %v", key, inf, h.count)
		}
	}
}

// TestMetricsMatchesStats pins the /metrics export to the service's own
// statistics: after a deterministic trace, every exported counter must
// be byte-identical to the corresponding /v1/stats value — aggregate
// and per device.
func TestMetricsMatchesStats(t *testing.T) {
	const devices = 3
	f := newFleet(t, devices, fleet.Options{Shards: 2})
	defer f.Close()
	ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
	defer ts.Close()

	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: 90, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := httpapi.NewClient(ts.URL, "", ts.Client())
	drive(t, client, trace, devices, 90)

	agg, err := client.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	scrape := scrapeMetrics(t, ts.URL, "")

	raw := func(name string, labels ...string) string {
		s := promSample{name: name, labels: map[string]string{}}
		for i := 0; i+1 < len(labels); i += 2 {
			s.labels[labels[i]] = labels[i+1]
		}
		got, ok := scrape.series[s.series()]
		if !ok {
			t.Fatalf("series %q missing from /metrics", s.series())
		}
		return got.raw
	}
	wantInt := func(name string, v int, labels ...string) {
		t.Helper()
		if got, want := raw(name, labels...), strconv.Itoa(v); got != want {
			t.Errorf("%s%v = %s, want %s", name, labels, got, want)
		}
	}

	wantInt("adaptrm_fleet_devices", agg.Devices)
	wantInt("adaptrm_requests_submitted_total", agg.Submitted)
	wantInt("adaptrm_requests_accepted_total", agg.Accepted)
	wantInt("adaptrm_requests_rejected_total", agg.Rejected)
	wantInt("adaptrm_jobs_completed_total", agg.Completed)
	wantInt("adaptrm_jobs_cancelled_total", agg.Cancelled)
	wantInt("adaptrm_jobs_deadline_misses_total", agg.DeadlineMisses)
	wantInt("adaptrm_scheduler_activations_total", agg.Activations)
	wantInt("adaptrm_cache_hits_total", agg.CacheHits)
	wantInt("adaptrm_cache_misses_total", agg.CacheMisses)
	wantInt("adaptrm_coalesced_batches_total", agg.CoalescedBatches)
	wantInt("adaptrm_coalesced_requests_total", agg.CoalescedRequests)
	wantInt("adaptrm_watch_dropped_total", agg.WatchDropped)
	if got, want := raw("adaptrm_energy_joules_total"), strconv.FormatFloat(agg.Energy, 'g', -1, 64); got != want {
		t.Errorf("energy = %s, want %s (byte-identical)", got, want)
	}

	var sum int
	for d := 0; d < devices; d++ {
		dev := d
		ds, err := client.Stats(bg, api.StatsRequest{Device: &dev})
		if err != nil {
			t.Fatal(err)
		}
		label := strconv.Itoa(d)
		wantInt("adaptrm_requests_submitted_total", ds.Submitted, "device", label)
		wantInt("adaptrm_requests_accepted_total", ds.Accepted, "device", label)
		wantInt("adaptrm_requests_rejected_total", ds.Rejected, "device", label)
		wantInt("adaptrm_jobs_completed_total", ds.Completed, "device", label)
		wantInt("adaptrm_jobs_cancelled_total", ds.Cancelled, "device", label)
		if got, want := raw("adaptrm_energy_joules_total", "device", label), strconv.FormatFloat(ds.Energy, 'g', -1, 64); got != want {
			t.Errorf("device %d energy = %s, want %s", d, got, want)
		}
		sum += ds.Submitted
	}
	if sum != agg.Submitted {
		t.Errorf("per-device submitted sum %d != aggregate %d", sum, agg.Submitted)
	}

	// The scrape that produced these numbers itself rode through the
	// instrumented mux: /v1/stats must show up in the HTTP counters.
	if got := scrape.series[promSample{name: "adaptrm_http_requests_total",
		labels: map[string]string{"route": "/v1/stats", "code": "2xx"}}.series()]; got.value < 1 {
		t.Errorf("http_requests_total for /v1/stats = %v, want >= 1", got.value)
	}
}

// TestHealthz pins the liveness body: status, device count, and an
// uptime that follows the injected clock.
func TestHealthz(t *testing.T) {
	const devices = 2
	f := newFleet(t, devices, fleet.Options{})
	defer f.Close()
	base := time.Unix(1_700_000_000, 0)
	cur := base
	ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{
		Now: func() time.Time { return cur },
	}))
	defer ts.Close()

	cur = base.Add(5 * time.Second)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
	var body struct {
		Status  string  `json:"status"`
		Devices int     `json:"devices"`
		UptimeS float64 `json:"uptime_s"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Devices != devices || body.UptimeS != 5 {
		t.Fatalf("healthz body %+v, want ok/%d devices/5s uptime", body, devices)
	}
}

// TestHealthzControl pins the degradation fields of the liveness body:
// without a controller the control keys are absent (probe configs stay
// valid byte for byte), with a controller in a degraded tier the body
// names the mode so a probe can pull the backend out of rotation.
func TestHealthzControl(t *testing.T) {
	getBody := func(ts *httptest.Server) map[string]any {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /healthz: %d", resp.StatusCode)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	// Controller-less fleet: no control keys at all.
	plain := newFleet(t, 1, fleet.Options{})
	defer plain.Close()
	ts := httptest.NewServer(mustServer(t, plain.Service(), httpapi.ServerOptions{}))
	defer ts.Close()
	body := getBody(ts)
	if _, ok := body["control_mode"]; ok {
		t.Errorf("controller-less healthz leaks control_mode: %v", body)
	}
	if _, ok := body["max_queue_depth"]; ok {
		t.Errorf("idle healthz leaks max_queue_depth: %v", body)
	}

	// Controlled fleet, escalated via the latency signal (any observed
	// admission latency clears a 1ns bar, so one submit plus one tick
	// reaches heuristic_only deterministically).
	ctl := control.New(control.Config{HighLatency: 1, EnterTicks: 1})
	f := newFleet(t, 1, fleet.Options{Control: ctl})
	defer f.Close()
	tsc := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
	defer tsc.Close()

	body = getBody(tsc)
	if got := body["control_mode"]; got != "normal" {
		t.Errorf("controlled healthz mode = %v, want normal", got)
	}
	if _, err := f.Service().Submit(context.Background(), api.SubmitRequest{
		Device: 0, At: 0, App: "lambda1", Deadline: 9,
	}); err != nil {
		t.Fatal(err)
	}
	ctl.Tick(1)
	body = getBody(tsc)
	if got := body["control_mode"]; got != "heuristic_only" {
		t.Errorf("degraded healthz mode = %v, want heuristic_only", got)
	}
}

// TestPprofGate: the profiling routes exist only when a token is
// configured, refuse requests without it, and accept both credential
// spellings.
func TestPprofGate(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	open := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
	defer open.Close()
	if resp, err := open.Client().Get(open.URL + "/debug/pprof/cmdline"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pprof without token configured: %d, want 404", resp.StatusCode)
		}
	}

	gated := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{PprofToken: "s3cret"}))
	defer gated.Close()
	get := func(path, bearer string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, gated.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bearer != "" {
			req.Header.Set("Authorization", "Bearer "+bearer)
		}
		resp, err := gated.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/debug/pprof/cmdline", ""); got != http.StatusUnauthorized {
		t.Errorf("no token: %d, want 401", got)
	}
	if got := get("/debug/pprof/cmdline", "wrong"); got != http.StatusUnauthorized {
		t.Errorf("wrong token: %d, want 401", got)
	}
	if got := get("/debug/pprof/cmdline", "s3cret"); got != http.StatusOK {
		t.Errorf("bearer token: %d, want 200", got)
	}
	if got := get("/debug/pprof/cmdline?token=s3cret", ""); got != http.StatusOK {
		t.Errorf("query token: %d, want 200", got)
	}
	if got := get("/debug/pprof/", "s3cret"); got != http.StatusOK {
		t.Errorf("pprof index: %d, want 200", got)
	}
}

// TestFlightlogEndpoint: the ring records served requests and watch
// events, the dump honours ?n=, and a tenanted server scopes the route
// like fleet-wide stats.
func TestFlightlogEndpoint(t *testing.T) {
	f := newFleet(t, 2, fleet.Options{})
	defer f.Close()
	fl := flightlog.New(64)
	tailCtx, cancelTail := context.WithCancel(bg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		flightlog.Tail(tailCtx, fl, f.Service())
	}()
	defer func() { cancelTail(); <-done }()
	// The submit's events reach the ring only if the tail is watching by
	// then; a watch opened later starts after them.
	waitFor(t, func() bool { return f.Stats().WatchSubscribers >= 1 })

	ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{FlightLog: fl}))
	defer ts.Close()
	client := httpapi.NewClient(ts.URL, "", ts.Client())
	if _, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 1, App: "lambda2", Deadline: 20}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fl.Len() >= 2 }) // HTTP record + at least one event

	resp, err := ts.Client().Get(ts.URL + "/debug/flightlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flightlog: %d", resp.StatusCode)
	}
	var dump flightlog.Dump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Retained == 0 || dump.Total < uint64(dump.Retained) {
		t.Fatalf("dump totals %+v", dump)
	}
	var sawHTTP, sawEvent bool
	for _, rec := range dump.Records {
		switch rec.Kind {
		case flightlog.KindHTTP:
			if rec.Route == "/v1/submit" && rec.Status == http.StatusOK {
				sawHTTP = true
			}
		case flightlog.KindEvent:
			if rec.Event != nil {
				sawEvent = true
			}
		}
	}
	if !sawHTTP || !sawEvent {
		t.Fatalf("dump misses record kinds (http %v, event %v): %+v", sawHTTP, sawEvent, dump.Records)
	}

	// ?n clamps the dump.
	resp2, err := ts.Client().Get(ts.URL + "/debug/flightlog?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var one flightlog.Dump
	if err := json.NewDecoder(resp2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if len(one.Records) != 1 {
		t.Fatalf("?n=1 returned %d records", len(one.Records))
	}
	if resp3, err := ts.Client().Get(ts.URL + "/debug/flightlog?n=x"); err != nil {
		t.Fatal(err)
	} else {
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusBadRequest {
			t.Fatalf("?n=x: %d, want 400", resp3.StatusCode)
		}
	}

	// Tenanted server: unauthenticated 401, device-restricted 403.
	tts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{
		FlightLog: fl,
		Tenants: []httpapi.Tenant{
			{Name: "ops", Token: "tok-ops"},
			{Name: "edge", Token: "tok-edge", Devices: []int{0}},
		},
	}))
	defer tts.Close()
	status := func(token string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, tts.URL+"/debug/flightlog", nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := tts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(""); got != http.StatusUnauthorized {
		t.Errorf("anonymous flightlog: %d, want 401", got)
	}
	if got := status("tok-edge"); got != http.StatusForbidden {
		t.Errorf("device-restricted flightlog: %d, want 403", got)
	}
	if got := status("tok-ops"); got != http.StatusOK {
		t.Errorf("unrestricted flightlog: %d, want 200", got)
	}
}

// TestQuotaRefusalSurfacing: refusals by each quota kind are counted
// and appear in fleet-wide /v1/stats, in /metrics, and in
// Server.QuotaRefusals — while per-device stats stay clean.
func TestQuotaRefusalSurfacing(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	now := time.Unix(0, 0) // frozen: the rate bucket never refills
	srv := mustServer(t, f.Service(), httpapi.ServerOptions{
		Now: func() time.Time { return now },
		Tenants: []httpapi.Tenant{
			{Name: "budgeted", Token: "tok-b", MaxRequests: 2},
			{Name: "paced", Token: "tok-r", Rate: 1, Burst: 1},
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bc := httpapi.NewClient(ts.URL, "tok-b", ts.Client())
	for i := 0; i < 2; i++ {
		if _, err := bc.Advance(bg, api.AdvanceRequest{Device: 0, To: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // three refusals on a spent budget
		if _, err := bc.Advance(bg, api.AdvanceRequest{Device: 0, To: 100}); codeOf(err) != api.CodeQuotaExceeded {
			t.Fatalf("expected budget refusal, got %v", err)
		}
	}
	rc := httpapi.NewClient(ts.URL, "tok-r", ts.Client())
	if _, err := rc.Advance(bg, api.AdvanceRequest{Device: 0, To: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Advance(bg, api.AdvanceRequest{Device: 0, To: 201}); codeOf(err) != api.CodeQuotaExceeded {
		t.Fatalf("expected rate refusal, got %v", err)
	}

	if b, r := srv.QuotaRefusals(); b != 3 || r != 1 {
		t.Fatalf("QuotaRefusals = (%d, %d), want (3, 1)", b, r)
	}
	st, err := bc.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if st.QuotaBudgetRefusals != 3 || st.QuotaRateRefusals != 1 {
		t.Fatalf("stats refusals = (%d, %d), want (3, 1)", st.QuotaBudgetRefusals, st.QuotaRateRefusals)
	}
	dev := 0
	ds, err := bc.Stats(bg, api.StatsRequest{Device: &dev})
	if err != nil {
		t.Fatal(err)
	}
	if ds.QuotaBudgetRefusals != 0 || ds.QuotaRateRefusals != 0 {
		t.Fatalf("per-device stats carry refusals: %+v", ds)
	}

	scrape := scrapeMetrics(t, ts.URL, "")
	want := map[string]float64{
		promSample{name: "adaptrm_quota_refusals_total", labels: map[string]string{"tenant": "budgeted", "kind": "budget"}}.series(): 3,
		promSample{name: "adaptrm_quota_refusals_total", labels: map[string]string{"tenant": "budgeted", "kind": "rate"}}.series():   0,
		promSample{name: "adaptrm_quota_refusals_total", labels: map[string]string{"tenant": "paced", "kind": "budget"}}.series():    0,
		promSample{name: "adaptrm_quota_refusals_total", labels: map[string]string{"tenant": "paced", "kind": "rate"}}.series():      1,
	}
	for key, v := range want {
		got, ok := scrape.series[key]
		if !ok {
			t.Errorf("series %q missing", key)
			continue
		}
		if got.value != v {
			t.Errorf("%q = %v, want %v", key, got.value, v)
		}
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
