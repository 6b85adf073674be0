package httpapi_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/httpapi"
)

// recorder is an api.Service that remembers the last request of each
// mutating verb, so a test can see exactly what the server decoded.
type recorder struct {
	mu      sync.Mutex
	submit  api.SubmitRequest
	advance api.AdvanceRequest
	cancel  api.CancelRequest
}

func (r *recorder) Submit(_ context.Context, req api.SubmitRequest) (api.SubmitResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submit = req
	return api.SubmitResult{JobID: 1, Accepted: true}, nil
}

func (r *recorder) Advance(_ context.Context, req api.AdvanceRequest) (api.AdvanceResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance = req
	return api.AdvanceResult{}, nil
}

func (r *recorder) Cancel(_ context.Context, req api.CancelRequest) (api.CancelResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cancel = req
	return api.CancelResult{Cancelled: true}, nil
}

func (r *recorder) Stats(context.Context, api.StatsRequest) (api.StatsResult, error) {
	return api.StatsResult{Devices: 1}, nil
}

// TestRequestBodyContract pins how the mutating verbs treat request
// bodies: which bytes are accepted, what they decode to, and which
// status and taxonomy code a refused body gets. The decoded values are
// the ones encoding/json (with DisallowUnknownFields, reading the first
// value of the body) produces, whatever the server uses to get them.
func TestRequestBodyContract(t *testing.T) {
	rec := new(recorder)
	ts := httptest.NewServer(mustServer(t, rec, httpapi.ServerOptions{}))
	t.Cleanup(ts.Close)

	huge := strings.Repeat("a", 1<<20)
	cases := []struct {
		name, route, body string
		status            int
		code              string // taxonomy code of a refusal
		submit            *api.SubmitRequest
		advance           *api.AdvanceRequest
		cancel            *api.CancelRequest
	}{
		{name: "canonical submit", route: "/v1/submit",
			body:   `{"device":0,"at":1.5,"app":"lambda1","deadline":9}`,
			status: 200, submit: &api.SubmitRequest{At: 1.5, App: "lambda1", Deadline: 9}},
		{name: "whitespace everywhere", route: "/v1/submit",
			body:   " \t\r\n{ \"device\" : 2 ,\n\"at\":0 , \"app\" :\"x\", \"deadline\": 1e1 }\n",
			status: 200, submit: &api.SubmitRequest{Device: 2, App: "x", Deadline: 10}},
		{name: "over 1 MiB", route: "/v1/submit",
			body:   `{"device":0,"app":"` + huge + `"}`,
			status: 413, code: api.CodePayloadTooLarge},
		{name: "unknown field", route: "/v1/submit",
			body:   `{"device":0,"at":0,"app":"lambda1","deadline":9,"priority":1}`,
			status: 400, code: api.CodeBadRequest},
		{name: "case-variant key", route: "/v1/submit",
			body:   `{"Device":1,"AT":2,"App":"lambda1","deadline":9}`,
			status: 200, submit: &api.SubmitRequest{Device: 1, At: 2, App: "lambda1", Deadline: 9}},
		{name: "escaped app name", route: "/v1/submit",
			body:   `{"device":0,"at":0,"app":"` + `\` + `u006cambda1","deadline":9}`,
			status: 200, submit: &api.SubmitRequest{App: "lambda1", Deadline: 9}},
		{name: "escaped quote and HTML in app", route: "/v1/submit",
			body:   `{"app":"a\"b<\/"}`,
			status: 200, submit: &api.SubmitRequest{App: `a"b</`}},
		{name: "non-ASCII and invalid UTF-8 app", route: "/v1/submit",
			body:   "{\"app\":\"λ\xff\"}",
			status: 200, submit: &api.SubmitRequest{App: "λ�"}},
		{name: "trailing garbage", route: "/v1/submit",
			body:   `{"device":3,"at":0,"app":"lambda1","deadline":9}xyz`,
			status: 200, submit: &api.SubmitRequest{Device: 3, App: "lambda1", Deadline: 9}},
		{name: "trailing second object", route: "/v1/submit",
			body:   `{"device":4,"app":"a"}{"device":5,"app":"b"}`,
			status: 200, submit: &api.SubmitRequest{Device: 4, App: "a"}},
		{name: "object then over 1 MiB of padding", route: "/v1/submit",
			body:   `{"device":6,"app":"a"}` + strings.Repeat(" ", 1<<20),
			status: 200, submit: &api.SubmitRequest{Device: 6, App: "a"}},
		{name: "duplicate key, last wins", route: "/v1/submit",
			body:   `{"device":1,"app":"a","device":7}`,
			status: 200, submit: &api.SubmitRequest{Device: 7, App: "a"}},
		{name: "null values", route: "/v1/submit",
			body:   `{"device":null,"at":null,"app":null,"deadline":null}`,
			status: 200, submit: &api.SubmitRequest{}},
		{name: "empty object", route: "/v1/submit", body: `{}`,
			status: 200, submit: &api.SubmitRequest{}},
		{name: "fractional device", route: "/v1/submit", body: `{"device":1.0}`,
			status: 400, code: api.CodeBadRequest},
		{name: "device overflows int", route: "/v1/submit", body: `{"device":99999999999999999999}`,
			status: 400, code: api.CodeBadRequest},
		{name: "float overflows", route: "/v1/submit", body: `{"at":1e400}`,
			status: 400, code: api.CodeBadRequest},
		{name: "string for number", route: "/v1/submit", body: `{"device":"1"}`,
			status: 400, code: api.CodeBadRequest},
		{name: "truncated object", route: "/v1/submit", body: `{"device":0`,
			status: 400, code: api.CodeBadRequest},
		{name: "empty body", route: "/v1/submit", body: ``,
			status: 400, code: api.CodeBadRequest},
		{name: "array body", route: "/v1/submit", body: `[]`,
			status: 400, code: api.CodeBadRequest},
		{name: "leading zero", route: "/v1/submit", body: `{"device":01}`,
			status: 400, code: api.CodeBadRequest},
		{name: "canonical advance", route: "/v1/advance", body: `{"device":1,"to":1e2}`,
			status: 200, advance: &api.AdvanceRequest{Device: 1, To: 100}},
		{name: "advance negative zero", route: "/v1/advance", body: `{"device":-0,"to":-0.0}`,
			status: 200, advance: &api.AdvanceRequest{}},
		{name: "canonical cancel", route: "/v1/cancel", body: `{"device":1,"job_id":42}`,
			status: 200, cancel: &api.CancelRequest{Device: 1, JobID: 42}},
		{name: "cancel with submit field", route: "/v1/cancel", body: `{"device":1,"app":"x"}`,
			status: 400, code: api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			*rec = recorder{}
			resp, err := http.Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %.200s)", resp.StatusCode, tc.status, body)
			}
			if tc.code != "" {
				var env struct {
					Error *api.Error `json:"error"`
				}
				if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
					t.Fatalf("no error envelope: %v, %.200s", err, body)
				}
				if env.Error.Code != tc.code {
					t.Errorf("code %q, want %q", env.Error.Code, tc.code)
				}
				return
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if tc.submit != nil && rec.submit != *tc.submit {
				t.Errorf("decoded %+v, want %+v", rec.submit, *tc.submit)
			}
			if tc.advance != nil && rec.advance != *tc.advance {
				t.Errorf("decoded %+v, want %+v", rec.advance, *tc.advance)
			}
			if tc.cancel != nil && rec.cancel != *tc.cancel {
				t.Errorf("decoded %+v, want %+v", rec.cancel, *tc.cancel)
			}
		})
	}
}

// TestResponseBytes pins the success responses of the hot verbs to
// exactly what json.Encoder writes: the same bytes, the trailing
// newline, and the JSON content type.
func TestResponseBytes(t *testing.T) {
	rec := new(recorder)
	ts := httptest.NewServer(mustServer(t, rec, httpapi.ServerOptions{}))
	t.Cleanup(ts.Close)
	for route, want := range map[string]string{
		"/v1/submit":  `{"job_id":1,"accepted":true}` + "\n",
		"/v1/advance": `{}` + "\n",
		"/v1/cancel":  `{"cancelled":true}` + "\n",
	} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(`{"device":0}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != want {
			t.Errorf("%s: body %q, want %q", route, body, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", route, ct)
		}
	}
}
