package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karma/internal/model"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return New(cfg)
}

// post runs one request through the handler and returns code and body.
func post(t *testing.T, s *Server, path, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func get(t *testing.T, s *Server, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d %q, want 200", code, body)
	}
	var h struct {
		Status  string `json:"status"`
		Go      string `json:"go"`
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body is not JSON: %v: %q", err, body)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if !strings.HasPrefix(h.Go, "go") || h.Version == "" {
		t.Errorf("healthz must carry build info, got %+v", h)
	}
}

// TestRequestID pins the correlation contract: a generated ID is echoed
// in the response header, an inbound X-Request-ID is honored, and error
// bodies carry the ID while success bodies (cached, shared) do not.
func TestRequestID(t *testing.T) {
	s := newTestServer(t, Config{})

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if id := rec.Header().Get("X-Request-ID"); len(id) != 16 {
		t.Errorf("generated request ID = %q, want 16 hex chars", id)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(`{"family":"bogus"}`))
	req.Header.Set("X-Request-ID", "trace-me-7")
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if id := rec.Header().Get("X-Request-ID"); id != "trace-me-7" {
		t.Errorf("inbound request ID not echoed: got %q", id)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if e.RequestID != "trace-me-7" {
		t.Errorf("error body request_id = %q, want trace-me-7", e.RequestID)
	}

	code, body := post(t, s, "/v1/evaluate",
		`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`)
	if code != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", code, body)
	}
	if bytes.Contains(body, []byte("request_id")) {
		t.Errorf("success bodies are cached across requests and must not carry a request ID: %s", body)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := post(t, s, "/v1/evaluate",
		`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`)
	if code != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", code, body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	r := resp.Result
	if r == nil || !r.Feasible {
		t.Fatalf("KARMA-DP on 128 GPUs should be feasible, got %+v", r)
	}
	if r.Backend != "analytic" || r.GPUs != 128 || r.GlobalBatch != 128*128 {
		t.Errorf("result = backend %q gpus %d batch %d, want analytic 128 %d",
			r.Backend, r.GPUs, r.GlobalBatch, 128*128)
	}
	if r.EpochTime <= 0 || r.IterPerSec <= 0 {
		t.Errorf("timings must be positive: %+v", r)
	}
	if !bytes.Contains(body, []byte(`"epoch_time_s"`)) {
		t.Errorf("response must use the documented JSON field names, got %s", body)
	}
	if r.Breakdown == nil {
		t.Error("feasible evaluation must carry a cost breakdown")
	} else if r.Breakdown.Components() <= 0 {
		t.Errorf("breakdown components sum to %v, want > 0", r.Breakdown.Components())
	}
}

func TestEvaluatePlannedBackend(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := post(t, s, "/v1/evaluate",
		`{"family":"karma-dp","model":"megatron-0.3B","backend":"planned","gpus":128,"batch":128}`)
	if code != http.StatusOK {
		t.Fatalf("planned evaluate = %d: %s", code, body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Result.Backend != "planned" {
		t.Errorf("backend = %q, want planned", resp.Result.Backend)
	}
}

func TestFeasibilityEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	// Plain DP on Turing-NLG cannot hold the model in 16 GB.
	code, body := post(t, s, "/v1/feasibility",
		`{"family":"dp","model":"turing-nlg-17B","gpus":512,"batch":512}`)
	if code != http.StatusOK {
		t.Fatalf("feasibility = %d: %s", code, body)
	}
	var infeasible FeasibilityResponse
	if err := json.Unmarshal(body, &infeasible); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if infeasible.Feasible || infeasible.Reason == "" {
		t.Errorf("DP Turing-NLG should be infeasible with a reason, got %+v", infeasible)
	}

	// KARMA-DP streams it (per-replica batch 1: the paper's global 512).
	code, body = post(t, s, "/v1/feasibility",
		`{"family":"karma-dp","model":"turing-nlg-17B","gpus":512,"batch":1}`)
	if code != http.StatusOK {
		t.Fatalf("feasibility = %d: %s", code, body)
	}
	var feasible FeasibilityResponse
	if err := json.Unmarshal(body, &feasible); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !feasible.Feasible {
		t.Errorf("KARMA-DP Turing-NLG should be feasible, got %+v", feasible)
	}
	if feasible.GPUs != 512 || feasible.Backend != "analytic" {
		t.Errorf("verdict = %+v, want 512 GPUs on analytic", feasible)
	}
}

func TestSweepEndpointPanels(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name, body string
		check      func(t *testing.T, resp SweepResponse)
	}{
		{
			name: "fig8-megatron",
			body: `{"panel":"fig8-megatron","gpus":[128]}`,
			check: func(t *testing.T, resp SweepResponse) {
				if resp.Fig8 == nil || len(resp.Fig8.Rows) != 1 || resp.Fig8.Rows[0].GPUs != 128 {
					t.Fatalf("fig8 panel = %+v, want one 128-GPU row", resp.Fig8)
				}
			},
		},
		{
			name: "fig8-turing",
			body: `{"panel":"fig8-turing","gpus":[512]}`,
			check: func(t *testing.T, resp SweepResponse) {
				if resp.Fig8 == nil || len(resp.Fig8.Rows) != 1 || resp.Fig8.Rows[0].GPUs != 512 {
					t.Fatalf("fig8 panel = %+v, want one 512-GPU row", resp.Fig8)
				}
			},
		},
		{
			name: "table4",
			body: `{"panel":"table4"}`,
			check: func(t *testing.T, resp SweepResponse) {
				if len(resp.Table4) != len(model.MegatronConfigs()) {
					t.Fatalf("table4 rows = %d, want one per Megatron config", len(resp.Table4))
				}
			},
		},
		{
			name: "table5",
			body: `{"panel":"table5"}`,
			check: func(t *testing.T, resp SweepResponse) {
				if len(resp.Table5) == 0 {
					t.Fatalf("table5 must carry at least one sweep")
				}
			},
		},
		{
			name: "topo",
			body: `{"panel":"topo"}`,
			check: func(t *testing.T, resp SweepResponse) {
				if len(resp.Topo) == 0 {
					t.Fatalf("topo panel must carry rows")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, s, "/v1/sweep", tc.body)
			if code != http.StatusOK {
				t.Fatalf("sweep = %d: %s", code, body)
			}
			var resp SweepResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("decoding response: %v", err)
			}
			if resp.Panel != tc.name {
				t.Errorf("panel = %q, want %q", resp.Panel, tc.name)
			}
			tc.check(t, resp)
		})
	}
}

// TestSweepDeterministicAcrossWorkers pins the serving contract that a
// response body is a pure function of the request: fresh servers with
// different worker pools must produce byte-identical bodies.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	const body = `{"panel":"fig8-megatron","config":1,"gpus":[128,512]}`
	var ref []byte
	for _, workers := range []int{1, 3, 8} {
		s := newTestServer(t, Config{Workers: workers})
		code, got := post(t, s, "/v1/sweep", body)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: sweep = %d: %s", workers, code, got)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d produced a different body:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

// TestEvaluateCanonicalization pins that semantically identical
// requests — a named transformer vs. its explicit configuration, and
// defaulted vs. explicit fields — share one cache entry and return
// byte-identical bodies.
func TestEvaluateCanonicalization(t *testing.T) {
	s := newTestServer(t, Config{})
	cfg := model.MegatronConfigs()[0]
	variants := []string{
		`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`,
		fmt.Sprintf(`{"family":"karma-dp","transformer":{"name":%q,"hidden":%d,"heads":%d,"layers":%d,"seq":%d,"vocab":%d},"gpus":128,"batch":128}`,
			cfg.Name, cfg.Hidden, cfg.Heads, cfg.Layers, cfg.Seq, cfg.Vocab),
		`{"family":"karma-dp","model":"megatron-0.3B","backend":"analytic","precision":"fp32","gpus":128,"batch":128,"samples":7200000}`,
	}
	var ref []byte
	for i, body := range variants {
		code, got := post(t, s, "/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("variant %d = %d: %s", i, code, got)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Fatalf("variant %d body differs:\n%s\nvs\n%s", i, got, ref)
		}
	}
	st := s.cache.Stats()
	if st.Misses != 1 || st.Hits != uint64(len(variants)-1) {
		t.Errorf("cache = %+v, want 1 miss and %d hits (one key for all variants)", st, len(variants)-1)
	}
}

// TestConcurrentDedup pins the singleflight: identical concurrent
// requests cost one evaluation and every caller reads identical bytes.
func TestConcurrentDedup(t *testing.T) {
	s := newTestServer(t, Config{})
	var evals atomic.Int64
	release := make(chan struct{})
	s.evalHook = func(string) {
		evals.Add(1)
		<-release
	}
	const body = `{"family":"karma-dp","model":"megatron-1.2B","gpus":256,"batch":256}`
	const n = 16
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			codes[i], bodies[i] = post(t, s, "/v1/evaluate", body)
		}(i)
	}
	started.Wait()
	// Give every request time to reach the flight before releasing it;
	// late arrivals still join the cached entry either way.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := evals.Load(); got != 1 {
		t.Errorf("evaluations = %d, want 1 (singleflight dedup)", got)
	}
}

// TestStatsCacheCounters drives a hit, a miss, and an eviction through
// a one-entry response cache and reads them back via /stats.
func TestStatsCacheCounters(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: 1})
	reqA := `{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`
	reqB := `{"family":"karma-dp","model":"megatron-0.3B","gpus":256,"batch":256}`
	for _, body := range []string{reqA, reqA, reqB} {
		if code, b := post(t, s, "/v1/evaluate", body); code != http.StatusOK {
			t.Fatalf("evaluate = %d: %s", code, b)
		}
	}
	code, stats := get(t, s, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	for _, want := range []string{
		`karma_serve_cache_hits_total{cache="response"} 1`,
		`karma_serve_cache_misses_total{cache="response"} 2`,
		`karma_serve_cache_evictions_total{cache="response"} 1`,
		`karma_serve_cache_entries{cache="response"} 1`,
		`karma_serve_requests_total{endpoint="/v1/evaluate",code="200"} 3`,
		`karma_serve_request_seconds_bucket{endpoint="/v1/evaluate",le="+Inf"} 3`,
		`karma_serve_cache_misses_total{cache="evaluator_shared"}`,
	} {
		if !strings.Contains(string(stats), want) {
			t.Errorf("stats missing %q:\n%s", want, stats)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		wantCode                 int
	}{
		{"get on evaluate", http.MethodGet, "/v1/evaluate", "", http.StatusMethodNotAllowed},
		{"get on sweep", http.MethodGet, "/v1/sweep", "", http.StatusMethodNotAllowed},
		{"unknown field", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128,"gpuz":1}`, http.StatusBadRequest},
		{"unknown family", http.MethodPost, "/v1/evaluate",
			`{"family":"fsdp","model":"megatron-0.3B","gpus":128,"batch":128}`, http.StatusBadRequest},
		{"model and transformer", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","transformer":{"hidden":1,"heads":1,"layers":1,"seq":1,"vocab":1},"gpus":128,"batch":128}`,
			http.StatusBadRequest},
		{"neither model nor transformer", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","gpus":128,"batch":128}`, http.StatusBadRequest},
		{"unknown model", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"gpt-5","gpus":128,"batch":128}`, http.StatusUnprocessableEntity},
		// Counts whose global batch overflows int once panicked the
		// daemon (dp) or reported a zero global batch (karma-dp).
		{"dp global batch overflow", http.MethodPost, "/v1/evaluate",
			`{"family":"dp","model":"megatron-0.3B","gpus":8,"batch":4611686018427387904}`, http.StatusUnprocessableEntity},
		{"planned dp global batch overflow", http.MethodPost, "/v1/evaluate",
			`{"family":"dp","model":"megatron-0.3B","gpus":8,"batch":4611686018427387904,"backend":"planned"}`, http.StatusUnprocessableEntity},
		{"karma-dp global batch overflow", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":4611686018427387904,"batch":4}`, http.StatusUnprocessableEntity},
		{"planned karma-dp global batch overflow", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":4611686018427387904,"batch":4,"backend":"planned"}`, http.StatusUnprocessableEntity},
		// A node count whose device total overflows int once read as a
		// 0-device cluster; a 2^50 batch once panicked the profiler
		// (negative transfer size) into a 500.
		{"cluster device count overflow", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":4,"cluster":{"nodes":4611686018427387904}}`, http.StatusUnprocessableEntity},
		{"per-replica batch over cap", http.MethodPost, "/v1/evaluate",
			`{"family":"dp","model":"resnet50","gpus":8,"batch":1125899906842624}`, http.StatusUnprocessableEntity},
		// Shapes the transformer builder panics on (a 500 before
		// model.TransformerConfig.Validate).
		{"heads do not divide hidden", http.MethodPost, "/v1/evaluate",
			`{"family":"dp","transformer":{"hidden":64,"heads":7,"layers":2,"seq":128,"vocab":1000},"gpus":8,"batch":4}`, http.StatusBadRequest},
		{"more heads than hidden", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","transformer":{"hidden":64,"heads":128,"layers":2,"seq":128,"vocab":1000},"gpus":8,"batch":4}`, http.StatusBadRequest},
		{"hidden over cap", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","transformer":{"hidden":4611686018427387904,"heads":1,"layers":2,"seq":128,"vocab":1000},"gpus":8,"batch":4}`, http.StatusBadRequest},
		{"hybrid without transformer", http.MethodPost, "/v1/evaluate",
			`{"family":"mp+dp","model":"resnet50","mp":4,"gpus":128,"batch":128}`, http.StatusBadRequest},
		{"zero gpus", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":0,"batch":128}`, http.StatusBadRequest},
		{"bad precision", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128,"precision":"bf16"}`, http.StatusBadRequest},
		{"bad topology", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128,"cluster":{"topology":"torus"}}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/v1/evaluate",
			`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128} {"x":1}`, http.StatusBadRequest},
		{"unknown panel", http.MethodPost, "/v1/sweep", `{"panel":"fig9"}`, http.StatusBadRequest},
		{"config on turing panel", http.MethodPost, "/v1/sweep",
			`{"panel":"fig8-turing","config":1}`, http.StatusBadRequest},
		{"gpu grid on table4", http.MethodPost, "/v1/sweep",
			`{"panel":"table4","gpus":[128]}`, http.StatusBadRequest},
		{"two topo counts", http.MethodPost, "/v1/sweep",
			`{"panel":"topo","gpus":[128,256]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.wantCode {
				t.Fatalf("code = %d, want %d: %s", rec.Code, tc.wantCode, rec.Body.String())
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error body must be {\"error\": ...}, got %q (%v)", rec.Body.String(), err)
			}
		})
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("rejected requests must not populate the response cache, got %+v", st)
	}
}

// TestPanicAnswers500 pins that a panicking evaluation answers 500 to
// the request instead of killing the process, is never cached, and a
// retry computes afresh.
func TestPanicAnswers500(t *testing.T) {
	s := newTestServer(t, Config{})
	s.evalHook = func(string) { panic("evaluation bug") }
	const body = `{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`
	code, got := post(t, s, "/v1/evaluate", body)
	if code != http.StatusInternalServerError || !strings.Contains(string(got), "evaluation bug") {
		t.Fatalf("panicking evaluate = %d, want 500 naming the panic: %s", code, got)
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("a panicked evaluation must not be cached, got %+v", st)
	}
	s.evalHook = nil
	if code, got := post(t, s, "/v1/evaluate", body); code != http.StatusOK {
		t.Fatalf("retry = %d, want 200: %s", code, got)
	}
}

// TestRequestTimeout pins the deadline path: a request whose evaluation
// outlives RequestTimeout gets 504, the computation finishes anyway,
// and a retry is served from cache.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 25 * time.Millisecond})
	release := make(chan struct{})
	s.evalHook = func(string) { <-release }
	const body = `{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`
	code, got := post(t, s, "/v1/evaluate", body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow evaluate = %d, want 504: %s", code, got)
	}
	close(release)
	// The retry joins the still-running flight (same key) and waits it
	// out within its own fresh deadline.
	code, got = post(t, s, "/v1/evaluate", body)
	if code != http.StatusOK {
		t.Fatalf("retry = %d, want 200: %s", code, got)
	}
}

// TestGracefulShutdown pins draining: http.Server.Shutdown must wait
// for an in-flight evaluation and its client must read a full 200.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, Config{})
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.evalHook = func(string) {
		once.Do(func() { close(inFlight) })
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
			strings.NewReader(`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`))
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{code: resp.StatusCode, body: b, err: err}
	}()
	<-inFlight

	shutdownDone := make(chan struct{})
	go func() {
		ts.Config.Shutdown(context.Background()) //nolint:errcheck // no deadline: wait for the drain
		close(shutdownDone)
	}()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case r := <-got:
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("drained request = %d %v: %s", r.code, r.err, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request did not complete after release")
	}
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the last request drained")
	}
}
