package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"karma/internal/model"
	"karma/internal/serve"
)

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloadNames() {
		a, _ := NewStream(w, 7)
		b, _ := NewStream(w, 7)
		c, _ := NewStream(w, 8)
		differ := false
		for i := 0; i < 500; i++ {
			ra, rb := a.At(i), b.At(i)
			if ra.Endpoint != rb.Endpoint || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w, i)
			}
			if !bytes.Equal(ra.Body, c.At(i).Body) {
				differ = true
			}
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", w)
		}
	}
}

func TestEvalColdNeverRepeatsAShape(t *testing.T) {
	s, _ := NewStream("eval-cold", 1)
	seen := map[model.TransformerConfig]int{}
	for i := 0; i < 30000; i++ {
		cfg := *s.At(i).Eval.Transformer
		if j, ok := seen[cfg]; ok {
			t.Fatalf("requests %d and %d share the shape %+v", j, i, cfg)
		}
		seen[cfg] = i
	}
}

func TestSweepGridNeverRepeatsASweep(t *testing.T) {
	s, _ := NewStream("sweep-grid", 1)
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		b := string(s.At(i).Body)
		if j, ok := seen[b]; ok {
			t.Fatalf("requests %d and %d are the same sweep %s", j, i, b)
		}
		seen[b] = i
	}
}

// TestRequestsPassServe sends a prefix of every stream through an
// in-process karma-serve handler: each request must pass validation
// (no 400), answer 200 and pass the benchmark's output checks. On the
// cold and sweep streams the response cache must never hit, which
// confirms no two requests share a canonical key.
func TestRequestsPassServe(t *testing.T) {
	for w, n := range map[string]int{"eval-cold": 1500, "eval-mixed": 1500, "sweep-grid": 80} {
		h := serve.New(serve.Config{}).Handler()
		s, _ := NewStream(w, 3)
		for i := 0; i < n; i++ {
			r := s.At(i)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Endpoint, bytes.NewReader(r.Body)))
			if smp := judge(r, i, rec.Code, rec.Body.Bytes(), nil); smp.err != "" {
				t.Fatalf("%s request %d %s %s: %s", w, i, r.Endpoint, r.Body, smp.err)
			}
		}
		if w == "eval-mixed" {
			for _, c := range exportConfigs() {
				for _, r := range []Request{evalRequest("/v1/plan", c), evalRequest("/v1/trace", c)} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Endpoint, bytes.NewReader(r.Body)))
					if smp := judge(r, -1, rec.Code, rec.Body.Bytes(), nil); smp.err != "" {
						t.Errorf("export %s %s: %s", r.Endpoint, r.Body, smp.err)
					}
				}
			}
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if !strings.Contains(rec.Body.String(), `karma_serve_cache_hits_total{cache="response"} 0`+"\n") {
			t.Errorf("%s: the response cache hit on a stream that never repeats a request", w)
		}
	}
}

func TestCheckVerdict(t *testing.T) {
	good := func() *verdict {
		return &verdict{Feasible: true, EpochTime: 10, IterTime: 1, IterPerSec: 1, GPUs: 8, GlobalBatch: 32,
			Breakdown: &breakdown{Compute: 0.5, SwapStall: 0.25, Update: 0.25}}
	}
	if err := checkVerdict(good(), 8, 32); err != nil {
		t.Fatalf("a consistent verdict failed: %v", err)
	}
	for name, mutate := range map[string]func(v *verdict){
		"breakdown off":    func(v *verdict) { v.Breakdown.Bubble = 0.1 },
		"negative":         func(v *verdict) { v.CostPerf = -1 },
		"epoch below iter": func(v *verdict) { v.EpochTime = 0.5 },
		"global batch":     func(v *verdict) { v.GlobalBatch = 16 },
		"no breakdown":     func(v *verdict) { v.Breakdown = nil },
	} {
		v := good()
		mutate(v)
		if checkVerdict(v, 8, 32) == nil {
			t.Errorf("%s: the check passed a broken verdict", name)
		}
	}
}
