package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"adaptrm/internal/api"
)

// Client is the Go client of the daemon protocol. It implements
// api.Service, so code written against the in-process fleet service
// runs unchanged against a remote daemon.
type Client struct {
	baseURL string
	token   string
	http    *http.Client
	// auth is the Authorization header value, built once.
	auth []string
	// routes holds the POST routes' URLs, parsed once (see newRequest).
	routes map[string]parsedRoute
}

// parsedRoute is one route's URL and Host as http.NewRequest derives
// them from baseURL+path.
type parsedRoute struct {
	url  url.URL
	host string
}

var (
	_ api.Service      = (*Client)(nil)
	_ api.BatchService = (*Client)(nil)
)

// postRoutes are the routes whose URL a Client parses once, up front.
var postRoutes = []string{"/v1/submit", "/v1/advance", "/v1/cancel", "/v1/submit-batch"}

// NewClient builds a client for a daemon at baseURL (e.g.
// "http://localhost:8080"). token may be empty against an open server.
// hc may be nil, defaulting to http.DefaultClient; pass a custom client
// to set timeouts or transports.
func NewClient(baseURL, token string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{baseURL: baseURL, token: token, http: hc, routes: make(map[string]parsedRoute, len(postRoutes))}
	if token != "" {
		c.auth = []string{"Bearer " + token}
	}
	for _, path := range postRoutes {
		// A base URL that does not parse leaves the route out; calls then
		// parse it per request and report the error there, as before.
		if proto, err := http.NewRequest(http.MethodPost, baseURL+path, nil); err == nil {
			c.routes[path] = parsedRoute{url: *proto.URL, host: proto.Host}
		}
	}
	return c
}

// NewPeerHTTPClient returns an HTTP client for a router's connection to
// one peer node: net/http's default transport, except that a request
// whose response headers have not arrived within timeout fails. A node
// writes its headers only once a unary call is decided, so a peer that
// accepts the connection and never answers costs a routed call at most
// timeout, and the router then reports the peer unavailable. A watch
// stream commits its headers as it opens, so, unlike with
// http.Client.Timeout, which also bounds reading the body, an open
// stream is never cut.
func NewPeerHTTPClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.ResponseHeaderTimeout = timeout
	return &http.Client{Transport: tr}
}

// newRequest builds one round-trip's request. A pre-parsed route copies
// its URL and Host instead of parsing baseURL+path again.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rt, ok := c.routes[path]
	if !ok {
		return http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	}
	// Parsing "/" is the cheapest way to get a request with its context
	// set; its URL is then overwritten, so no request shares a URL.
	req, err := http.NewRequestWithContext(ctx, method, "/", rd)
	if err != nil {
		return nil, err
	}
	*req.URL = rt.url
	req.Host = rt.host
	return req, nil
}

// call performs one round-trip: POST with a JSON body (or GET when body
// is nil), decoding the result into out on 200 and rebuilding the
// taxonomy error — plus any partial result — otherwise. out may be nil
// when the caller wants no result. Hot results decode through the wire
// codec; everything else, and anything it declines, through
// encoding/json.
func call[Res any](ctx context.Context, c *Client, method, path string, body []byte, out *Res) error {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return fmt.Errorf("httpapi: %s: %w", path, err)
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	if c.auth != nil {
		req.Header["Authorization"] = c.auth
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: %s: %w", path, err)
	}
	defer func() {
		// Drain whatever the decoder left so the keep-alive connection
		// returns to the pool instead of being torn down.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusOK {
		if out == nil {
			return nil
		}
		buf := getBuf()
		defer putBuf(buf)
		if err := readDecode(resp.Body, buf, out, false); err != nil {
			return fmt.Errorf("httpapi: decode %s: %w", path, err)
		}
		return nil
	}
	// Failure: rebuild the taxonomy error and keep the partial result
	// (e.g. completions delivered alongside a rejection).
	var env struct {
		Error  *api.Error      `json:"error"`
		Result json.RawMessage `json:"result,omitempty"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil || env.Error == nil {
		// No envelope — the response came from outside the protocol
		// (mux 404/405, a proxy, ...). Approximate a taxonomy code from
		// the status so caller mistakes are not misfiled as internal
		// server failures.
		return api.Errf(statusSentinel(resp.StatusCode), "%s: HTTP %d without error envelope", path, resp.StatusCode)
	}
	if out != nil && len(env.Result) > 0 {
		v := new(Res)
		_ = json.Unmarshal(env.Result, v)
		*out = *v
	}
	// Fold through FromCode so a newer server's unknown codes still
	// match a sentinel (ErrInternal) instead of matching nothing.
	return api.FromCode(env.Error.Code, env.Error.Message)
}

// post encodes req and performs a POST round-trip into *out.
func post[Req, Res any](ctx context.Context, c *Client, path string, req Req, out *Res) error {
	body, err := marshalWire(req)
	if err != nil {
		return fmt.Errorf("httpapi: encode %s: %w", path, err)
	}
	return call(ctx, c, http.MethodPost, path, body, out)
}

// statusSentinel maps a bare HTTP status onto the nearest taxonomy
// sentinel, for responses that carry no protocol envelope.
func statusSentinel(status int) *api.Error {
	switch status {
	case http.StatusUnauthorized:
		return api.ErrUnauthorized
	case http.StatusForbidden:
		return api.ErrForbidden
	case http.StatusTooManyRequests:
		return api.ErrQuotaExceeded
	case http.StatusRequestEntityTooLarge:
		return api.ErrPayloadTooLarge
	case http.StatusServiceUnavailable:
		return api.ErrOverloaded
	case http.StatusBadGateway:
		return api.ErrUnavailable
	default:
		if status >= 400 && status < 500 {
			return api.ErrBadRequest
		}
		return api.ErrInternal
	}
}

// Submit implements api.Service over HTTP.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (api.SubmitResult, error) {
	var res api.SubmitResult
	err := post(ctx, c, "/v1/submit", req, &res)
	return res, err
}

// SubmitBatch implements api.BatchService over HTTP: the whole batch is
// one round-trip and, on a batching server, one scheduler activation
// when jointly feasible. Per-item errors come back inside the verdicts;
// their codes are folded through the taxonomy exactly like call-level
// errors, so errors.Is against the api sentinels works on each.
func (c *Client) SubmitBatch(ctx context.Context, req api.BatchSubmitRequest) (api.BatchSubmitResult, error) {
	var res api.BatchSubmitResult
	err := post(ctx, c, "/v1/submit-batch", req, &res)
	for i, v := range res.Verdicts {
		if v.Error != nil {
			// Fold unknown codes (a newer server's) into CodeInternal,
			// matching the call-level decoding path.
			res.Verdicts[i].Error = api.FromCode(v.Error.Code, v.Error.Message)
		}
	}
	return res, err
}

// Advance implements api.Service over HTTP.
func (c *Client) Advance(ctx context.Context, req api.AdvanceRequest) (api.AdvanceResult, error) {
	var res api.AdvanceResult
	err := post(ctx, c, "/v1/advance", req, &res)
	return res, err
}

// Cancel implements api.Service over HTTP.
func (c *Client) Cancel(ctx context.Context, req api.CancelRequest) (api.CancelResult, error) {
	var res api.CancelResult
	err := post(ctx, c, "/v1/cancel", req, &res)
	return res, err
}

// Stats implements api.Service over HTTP.
func (c *Client) Stats(ctx context.Context, req api.StatsRequest) (api.StatsResult, error) {
	path := "/v1/stats"
	if req.Device != nil {
		path += "?device=" + url.QueryEscape(strconv.Itoa(*req.Device))
	}
	var res api.StatsResult
	err := call(ctx, c, http.MethodGet, path, nil, &res)
	return res, err
}

// Health reports whether the daemon answers its liveness probe.
func (c *Client) Health(ctx context.Context) error {
	return call[struct{}](ctx, c, http.MethodGet, "/healthz", nil, nil)
}
