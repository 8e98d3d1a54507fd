package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// perLayerUnits is the per-layer metric catalog (BENCHMARK.json's
// per_layer list): every trace run reports each of them.
var perLayerUnits = map[string]string{
	"serve.handler_p50_us":               "us",
	"serve.transport_share":              "ratio",
	"serve.response_hit_share":           "ratio",
	"serve.response_evictions":           "count",
	"serve.body_kb":                      "KiB",
	"serve.p50_ms.evaluate":              "ms",
	"serve.p50_ms.feasibility":           "ms",
	"serve.p50_ms.plan":                  "ms",
	"serve.p50_ms.trace":                 "ms",
	"serve.p50_ms.sweep":                 "ms",
	"dist.shared_hit_share":              "ratio",
	"dist.planned_hit_share":             "ratio",
	"dist.shared_evictions":              "count",
	"dist.search_ms_per_req":             "ms",
	"dist.plan_build_ms_per_req":         "ms",
	"dist.simulate_ms_per_req":           "ms",
	"dist.simulate_calls_per_req":        "count",
	"dist.feasible_share":                "ratio",
	"dist.eval_ms.karma-dp":              "ms",
	"dist.eval_ms.dp":                    "ms",
	"dist.eval_ms.mp-dp":                 "ms",
	"dist.eval_ms.zero":                  "ms",
	"dist.eval_ms.pipeline":              "ms",
	"dist.export_ms":                     "ms",
	"model.transformer_ms":               "ms",
	"model.shard_ms":                     "ms",
	"model.nodes":                        "count",
	"profiler.new_ms":                    "ms",
	"profiler.blocks":                    "count",
	"karma.plan_ms":                      "ms",
	"karma.checkpoint_ms":                "ms",
	"karma.footprint_ms":                 "ms",
	"karma.footprint_allocs":             "count",
	"karma.buildplan_us":                 "us",
	"karma.blocks":                       "count",
	"plan.compile_us":                    "us",
	"plan.ops":                           "count",
	"sim.run_us":                         "us",
	"sim.ops_per_s":                      "1/s",
	"trace.write_ms":                     "ms",
	"trace.kb":                           "KiB",
	"experiments.panel_ms.fig8-megatron": "ms",
	"experiments.panel_ms.fig8-turing":   "ms",
	"experiments.panel_ms.table4":        "ms",
	"experiments.panel_ms.table5":        "ms",
	"experiments.panel_ms.topo":          "ms",
	"sweep.speedup":                      "ratio",
	"runtime.alloc_kb_per_req":           "KiB",
	"runtime.gc_cpu_share":               "ratio",
	"workload.shape_repeat_share":        "ratio",
	"workload.search_calls_per_req":      "count",
	"workload.warmup_requests":           "count",
	"tracing.overhead_share":             "ratio",
}

// endpointProbes is how many requests probe an endpoint the workload
// does not carry, so every endpoint's client latency is reported.
const endpointProbes = 20

// perLayer assembles the per-layer metrics of a trace run: /stats
// deltas and client-side splits of the measured phase, client latency
// of endpoint probes for endpoints the workload does not carry, and the
// traced pass.
func perLayer(rep *report, d *daemon, ok, bytesOK, verdicts, feasible int, seed int64, outDir string) (metrics, error) {
	m := metrics{}
	st := rep.StatsDelta
	cache := func(name string) (hits, misses, evictions float64) {
		l := fmt.Sprintf("{cache=%q}", name)
		return st["karma_serve_cache_hits_total"+l], st["karma_serve_cache_misses_total"+l], st["karma_serve_cache_evictions_total"+l]
	}
	h, mi, ev := cache("response")
	m.set("serve.response_hit_share", share(h, h+mi), "ratio")
	m.set("serve.response_evictions", ev, "count")
	h, mi, ev = cache("evaluator_shared")
	m.set("dist.shared_hit_share", share(h, h+mi), "ratio")
	m.set("dist.shared_evictions", ev, "count")
	h, mi, _ = cache("evaluator_planned")
	m.set("dist.planned_hit_share", share(h, h+mi), "ratio")
	phase := func(kind, p string) float64 {
		return st[fmt.Sprintf("karma_serve_eval_phase_seconds_%s{phase=%q}", kind, p)]
	}
	okf := float64(ok)
	m.set("dist.search_ms_per_req", phase("sum", "search")*1000/okf, "ms")
	m.set("dist.plan_build_ms_per_req", phase("sum", "plan_build")*1000/okf, "ms")
	m.set("dist.simulate_ms_per_req", phase("sum", "simulate")*1000/okf, "ms")
	m.set("dist.simulate_calls_per_req", phase("count", "simulate")/okf, "count")
	m.set("dist.feasible_share", share(float64(feasible), float64(verdicts)), "ratio")
	m.set("serve.body_kb", float64(bytesOK)/1024/okf, "KiB")
	m.set("workload.shape_repeat_share", rep.Counts["shape_repeat_share"], "ratio")
	m.set("workload.search_calls_per_req", rep.Counts["search_calls_per_req"], "count")
	m.set("workload.warmup_requests", float64(rep.WarmupRequests), "count")

	// Client latency by endpoint; endpoints the workload does not carry
	// are probed after the measured phase.
	rep.Probes = map[string]int{}
	for _, ep := range endpoints {
		name := "serve.p50_ms." + strings.TrimPrefix(ep, "/v1/")
		if p50, ok := rep.Measured.P50ms[ep]; ok {
			m.set(name, p50, "ms")
			continue
		}
		probe, err := probeRequests(ep, seed)
		if err != nil {
			return nil, err
		}
		got, _ := drive(d, probe, 1, 0, len(probe.reqs), 0)
		var lats []float64
		for _, s := range got {
			lats = append(lats, float64(s.lat)/1e6)
			if s.err != "" {
				rep.Failures = append(rep.Failures, failureOf(probe, s, "probe"))
			}
		}
		rep.Probes[ep] = len(got)
		m.set(name, median(lats), "ms")
	}

	tr, err := runTracedPasses(rep.Workload, seed, filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.json", rep.Workload, seed)))
	if err != nil {
		return nil, err
	}
	rep.Traced = tr
	for k, v := range tr.Metrics {
		m[k] = v
	}
	m.set("serve.transport_share", 1-m["serve.handler_p50_us"].Value/1000/rep.EndToEnd["latency_p50_ms"].Value, "ratio")
	m.set("tracing.overhead_share", tr.Overhead, "ratio")
	rep.Failures = append(rep.Failures, tr.Failures...)

	rep.Unmeasured = map[string]string{}
	for name, unit := range perLayerUnits {
		if _, ok := m[name]; !ok {
			rep.Unmeasured[name] = "no call of this function completed in the traced pass"
			m.set(name, 0, unit)
		}
	}
	return m, nil
}

// probeRequests returns the first endpointProbes requests to an
// endpoint from the stream of a workload that carries it.
func probeRequests(endpoint string, seed int64) (*Stream, error) {
	src := map[string]string{
		"/v1/evaluate": "eval-cold", "/v1/feasibility": "eval-cold",
		"/v1/plan": "eval-mixed", "/v1/trace": "eval-mixed", "/v1/sweep": "sweep-grid",
	}[endpoint]
	s, err := NewStream(src, seed)
	if err != nil {
		return nil, err
	}
	probe := &Stream{}
	for i := 0; len(probe.reqs) < endpointProbes; i++ {
		if r := s.At(i); r.Endpoint == endpoint {
			probe.reqs = append(probe.reqs, r)
		}
	}
	return probe, nil
}
