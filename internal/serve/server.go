// Package serve is karma-serve's HTTP layer: the planner and both
// evaluator backends behind a long-running JSON API (ROADMAP item 2) —
// "can model M train on cluster C, and how fast?" as a service.
//
// Endpoints:
//
//	POST /v1/evaluate    one configuration -> dist.Result (+ breakdown)
//	POST /v1/feasibility one configuration -> verdict + Reason only
//	POST /v1/sweep       one experiment panel (fig8/table4/table5/topo)
//	BOTH /v1/plan        one configuration -> compiled plan.Plan JSON
//	BOTH /v1/trace       one configuration -> Chrome trace-event JSON
//	GET  /healthz        liveness + build info
//	GET  /stats          Prometheus text: requests, latency, phases, caches
//
// /v1/plan and /v1/trace accept the /v1/evaluate JSON body via POST, or
// the same fields as query parameters via GET (curl-friendly); both run
// the planned backend regardless of the requested one — the export is
// the planner's schedule by definition.
//
// Every request carries an ID: the inbound X-Request-ID when the client
// set one, a generated hex token otherwise. It is echoed in the
// X-Request-ID response header, attached to every structured log line,
// and embedded in JSON error bodies — success bodies never carry it, so
// cached responses stay byte-identical across requests.
//
// The serving stack is three bounded layers. A canonicalized-request
// LRU response cache (a flight.Cache) returns byte-identical bodies for
// semantically identical requests and singleflights identical
// concurrent ones down to a single evaluation. Below it, the evaluator
// caches in internal/dist (flight.Cache instances too) dedupe shared
// sub-computations — registry graph builds, profiles, partition
// searches — across *different* requests. A semaphore caps concurrent evaluations
// (each of which fans its grid out through internal/sweep's bounded
// pool), so a request burst degrades by queueing, not by oversubscribing
// the machine.
//
// Every evaluation is a pure function of its canonicalized request, so
// responses are deterministic: identical request bodies produce
// byte-identical response bodies at any worker count, cold or cached.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"karma/internal/dist"
	"karma/internal/flight"
)

// Config tunes a Server. The zero value serves with NumCPU sweep
// workers, 2 evaluation slots per CPU, a 1024-entry response cache and
// a 120s compute deadline.
type Config struct {
	// Workers bounds the goroutines each sweep fans grid points across
	// (sweep.Workers semantics: 0 means NumCPU). Responses are identical
	// for every value.
	Workers int
	// MaxInFlight caps concurrently computing evaluations; requests
	// beyond it queue on the semaphore. 0 means 2x NumCPU.
	MaxInFlight int
	// CacheEntries bounds the response LRU. 0 means 1024.
	CacheEntries int
	// RequestTimeout is the per-request compute deadline; a request
	// whose evaluation runs past it gets 504 while the computation
	// finishes and populates the cache for the retry. 0 means 120s.
	RequestTimeout time.Duration
	// Logger receives one structured line per request. nil discards.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// the profiler exposes stacks and heap contents, so a deployment
	// opts in explicitly (karma-serve's -pprof flag).
	Pprof bool
}

// Server is the karma-serve HTTP handler set.
type Server struct {
	cfg     Config
	log     *slog.Logger
	evals   map[string]dist.Evaluator
	cache   *flight.Cache[string, []byte]
	metrics *metrics
	build   buildInfo
	slots   chan struct{}
	mux     *http.ServeMux
	// evalHook, when set, runs at the start of every cache-miss
	// computation (inside the singleflight, before the semaphore).
	// Tests use it to count evaluations and to hold one in flight.
	evalHook func(endpoint string)
}

// New returns a ready Server.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.NumCPU()
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 120 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg: cfg,
		log: log,
		// One long-lived evaluator per backend: the planned evaluator's
		// instance caches are request-spanning by design, and bounded
		// (flight.Cache LRUs), so holding it for the process lifetime is
		// safe.
		evals: map[string]dist.Evaluator{
			"analytic": dist.Analytic{},
			"planned":  dist.NewPlanned(),
		},
		cache:   flight.New[string, []byte](cfg.CacheEntries),
		metrics: newMetrics(),
		build:   readBuildInfo(),
		slots:   make(chan struct{}, cfg.MaxInFlight),
	}
	// Feed the planner's phase timings (search / plan_build / simulate)
	// into the /stats series. The hook only costs clock reads when
	// registered, which a serving process always wants.
	if pe, ok := s.evals["planned"].(*dist.Planned); ok {
		pe.Observe(s.metrics.evalPhase)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/evaluate", s.instrument("/v1/evaluate", s.handleEvaluate))
	mux.HandleFunc("/v1/feasibility", s.instrument("/v1/feasibility", s.handleFeasibility))
	mux.HandleFunc("/v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("/v1/plan", s.instrument("/v1/plan", s.handlePlan))
	mux.HandleFunc("/v1/trace", s.instrument("/v1/trace", s.handleTrace))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/stats", s.instrument("/stats", s.handleStats))
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// readBuildInfo snapshots the binary's build metadata for /healthz and
// the karma_build_info gauge.
func readBuildInfo() buildInfo {
	bi := buildInfo{goVersion: runtime.Version(), version: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Version != "" {
		bi.version = info.Main.Version
	}
	return bi
}

// Handler returns the root handler (mount it on an http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// apiError is the JSON error body. The request ID rides along so a
// client can quote the exact failing request at the server's logs;
// success bodies never carry it (they are cached and shared across
// requests).
type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// requestIDKey is the context key instrument stores the request ID
// under.
type requestIDKey struct{}

// requestID returns the ID instrument attached to this request.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// newRequestID mints a 16-hex-char correlation token.
func newRequestID() string {
	//karma:det-ok request IDs are correlation tokens; no model output depends on them
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request middleware: request-ID
// assignment (inbound X-Request-ID honored, a fresh token minted
// otherwise, either way echoed in the response header), in-flight
// accounting, latency observation, and one structured log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		//karma:det-ok request latency and logs are wall-clock by nature; no model output depends on them
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		w.Header().Set("X-Request-ID", id)
		s.metrics.requestStart()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.requestEnd(endpoint, rec.code, elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"code", rec.code,
			"duration", elapsed,
			"remote", r.RemoteAddr,
			"request_id", id,
		)
	}
}

// writeJSON writes body (pre-encoded canonical bytes) as JSON.
func writeJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// writeError writes a JSON error body carrying the request's ID.
func writeError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	b, _ := json.Marshal(apiError{Error: fmt.Sprintf(format, args...), RequestID: requestID(r)})
	writeJSON(w, code, append(b, '\n'))
}

// encode marshals a response body in the canonical form the cache
// stores: compact JSON plus a trailing newline.
func encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeStrict decodes a JSON request body, rejecting unknown fields
// (a typoed option must fail loudly, not silently evaluate a default).
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the JSON value is a malformed request too.
	if dec.More() {
		return fmt.Errorf("request body holds more than one JSON value")
	}
	return nil
}

// compute runs fn under the response cache, the singleflight, the
// evaluation semaphore and the request deadline: a cache hit returns
// stored bytes; a miss computes once for all identical concurrent
// requests. When the deadline (or the client) cancels first, the
// computation keeps running to completion so its result still lands in
// the cache — pure CPU work cannot be preempted midway, only awaited or
// abandoned — and the abandoning request reports 504.
func (s *Server) compute(ctx context.Context, endpoint, key string, fn func() (any, error)) ([]byte, int, error) {
	return s.computeRaw(ctx, endpoint, key, func() ([]byte, error) {
		v, err := fn()
		if err != nil {
			return nil, err
		}
		return encode(v)
	})
}

// computeRaw is compute for endpoints whose cached body is not the
// canonical compact-JSON encoding (the Chrome trace is served verbatim
// as its writer produced it).
func (s *Server) computeRaw(ctx context.Context, endpoint, key string, fn func() ([]byte, error)) ([]byte, int, error) {
	type outcome struct {
		body []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		body, err := s.cache.Do(key, func() ([]byte, error) {
			if s.evalHook != nil {
				s.evalHook(endpoint)
			}
			s.slots <- struct{}{}
			defer func() { <-s.slots }()
			return fn()
		})
		ch <- outcome{body: body, err: err}
	}()
	select {
	case out := <-ch:
		var pe *flight.PanicError
		if errors.As(out.err, &pe) {
			// A bug, not a bad request: the cache has already forgotten
			// the flight, so the failure is never served from cache.
			s.log.Error("evaluation panicked", "endpoint", endpoint, "panic", pe.Value, "stack", string(pe.Stack))
			return nil, http.StatusInternalServerError, out.err
		}
		if out.err != nil {
			return nil, http.StatusUnprocessableEntity, out.err
		}
		return out.body, http.StatusOK, nil
	case <-ctx.Done():
		return nil, http.StatusGatewayTimeout,
			fmt.Errorf("request deadline exceeded; the evaluation continues and will be cached for a retry")
	}
}

// postJSON guards method and content shape for the POST endpoints.
func postJSON(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, r, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return false
	}
	return true
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	s.handleEval(w, r, "/v1/evaluate", func(res *dist.Result) any {
		return EvaluateResponse{Result: res}
	})
}

func (s *Server) handleFeasibility(w http.ResponseWriter, r *http.Request) {
	s.handleEval(w, r, "/v1/feasibility", func(res *dist.Result) any {
		return FeasibilityResponse{
			Feasible:    res.Feasible,
			Reason:      res.Reason,
			GPUs:        res.GPUs,
			GlobalBatch: res.GlobalBatch,
			Backend:     res.Backend,
		}
	})
}

// handleEval is the shared evaluate/feasibility path; project shapes
// the evaluation into the endpoint's response body.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request, endpoint string, project func(*dist.Result) any) {
	if !postJSON(w, r) {
		return
	}
	var req EvaluateRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := canonicalKey(endpoint, &req)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, code, err := s.compute(ctx, endpoint, key, func() (any, error) {
		res, err := req.evaluate(s.evals[req.Backend])
		if err != nil {
			return nil, err
		}
		return project(res), nil
	})
	if err != nil {
		writeError(w, r, code, "%v", err)
		return
	}
	writeJSON(w, code, body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !postJSON(w, r) {
		return
	}
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := canonicalKey("/v1/sweep", &req)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, code, err := s.compute(ctx, "/v1/sweep", key, func() (any, error) {
		return req.run(s.evals[req.Backend], s.cfg.Workers)
	})
	if err != nil {
		writeError(w, r, code, "%v", err)
		return
	}
	writeJSON(w, code, body)
}

// healthBody is the /healthz response: liveness plus the build identity
// of the serving binary, so a probe (or a human with curl) can tell
// which build answered.
type healthBody struct {
	Status  string `json:"status"`
	Go      string `json:"go"`
	Version string `json:"version"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body, err := encode(healthBody{Status: "ok", Go: s.build.goVersion, Version: s.build.version})
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	planned, _ := s.evals["planned"].(*dist.Planned)
	caches := []cacheStats{
		{name: "response", s: s.cache.Stats()},
		{name: "evaluator_shared", s: dist.SharedCacheStats()},
	}
	if planned != nil {
		caches = append(caches, cacheStats{name: "evaluator_planned", s: planned.CacheStats()})
	}
	s.metrics.render(&sb, s.build, caches)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, sb.String())
}
