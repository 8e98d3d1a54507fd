package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"karma/internal/flight"
)

// latencyBuckets are the fixed histogram bounds (seconds) of the
// request-latency histogram. They span a cache hit (~100µs) to a cold
// planned table5 sweep (tens of seconds); +Inf is implicit.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

// metrics is the /stats state: request counters by (endpoint, code), an
// in-flight gauge, and one latency histogram per endpoint. All writes
// go through the mutex; rendering iterates sorted keys so the exposition
// is byte-stable for a given state.
type metrics struct {
	mu       sync.Mutex
	requests map[requestKey]uint64
	inFlight int
	hist     map[string]*histogram
	phases   map[string]*phaseStat
}

// phaseStat accumulates one evaluation phase's wall-clock time (the
// Planned evaluator's Observe feed: search, plan_build, simulate).
type phaseStat struct {
	sum   float64
	count uint64
}

type requestKey struct {
	endpoint string
	code     int
}

type histogram struct {
	counts []uint64 // one per latencyBuckets entry, plus a final +Inf
	sum    float64
	count  uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[requestKey]uint64{},
		hist:     map[string]*histogram{},
		phases:   map[string]*phaseStat{},
	}
}

// evalPhase records one evaluation phase duration; it is the callback
// registered with the planned evaluator's Observe hook and may be
// invoked from concurrent evaluations.
func (m *metrics) evalPhase(phase string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.phases[phase]
	if p == nil {
		p = &phaseStat{}
		m.phases[phase] = p
	}
	p.sum += seconds
	p.count++
}

func (m *metrics) requestStart() {
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

func (m *metrics) requestEnd(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	m.requests[requestKey{endpoint: endpoint, code: code}]++
	h := m.hist[endpoint]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
		m.hist[endpoint] = h
	}
	for i, b := range latencyBuckets {
		if seconds <= b {
			h.counts[i]++
		}
	}
	h.counts[len(latencyBuckets)]++ // +Inf
	h.sum += seconds
	h.count++
}

// cacheStats is one named cache's snapshot for rendering.
type cacheStats struct {
	name string
	s    flight.Stats
}

// buildInfo labels the karma_build_info gauge: the Go toolchain that
// built the binary and the main-module version when one is stamped.
type buildInfo struct {
	goVersion string
	version   string
}

// render writes the Prometheus text exposition: the build-info gauge,
// request counters, the in-flight gauge, per-endpoint latency
// histograms, the evaluation-phase timing series, and one block of
// hit/miss/eviction/entry series per cache layer (response cache,
// shared evaluator memos, planner instance memos).
func (m *metrics) render(sb *strings.Builder, bi buildInfo, caches []cacheStats) {
	m.mu.Lock()
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests { //karma:det-ok keys are sorted before rendering
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	endpoints := make([]string, 0, len(m.hist))
	hists := map[string]histogram{}
	for k, h := range m.hist { //karma:det-ok keys are sorted before rendering
		endpoints = append(endpoints, k)
		snap := *h
		snap.counts = append([]uint64(nil), h.counts...)
		hists[k] = snap
	}
	sort.Strings(endpoints)
	counts := make([]uint64, len(keys))
	for i, k := range keys {
		counts[i] = m.requests[k]
	}
	phaseNames := make([]string, 0, len(m.phases))
	phaseSnaps := map[string]phaseStat{}
	for k, p := range m.phases { //karma:det-ok keys are sorted before rendering
		phaseNames = append(phaseNames, k)
		phaseSnaps[k] = *p
	}
	sort.Strings(phaseNames)
	inFlight := m.inFlight
	m.mu.Unlock()

	fmt.Fprintf(sb, "# HELP karma_build_info Build metadata of the serving binary, as labels.\n")
	fmt.Fprintf(sb, "# TYPE karma_build_info gauge\n")
	fmt.Fprintf(sb, "karma_build_info{go=%q,version=%q} 1\n", bi.goVersion, bi.version)

	fmt.Fprintf(sb, "# HELP karma_serve_requests_total Requests served, by endpoint and status code.\n")
	fmt.Fprintf(sb, "# TYPE karma_serve_requests_total counter\n")
	for i, k := range keys {
		fmt.Fprintf(sb, "karma_serve_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, counts[i])
	}
	fmt.Fprintf(sb, "# HELP karma_serve_in_flight Requests currently being served.\n")
	fmt.Fprintf(sb, "# TYPE karma_serve_in_flight gauge\n")
	fmt.Fprintf(sb, "karma_serve_in_flight %d\n", inFlight)

	fmt.Fprintf(sb, "# HELP karma_serve_request_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(sb, "# TYPE karma_serve_request_seconds histogram\n")
	for _, ep := range endpoints {
		h := hists[ep]
		for i, b := range latencyBuckets {
			fmt.Fprintf(sb, "karma_serve_request_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, formatFloat(b), h.counts[i])
		}
		fmt.Fprintf(sb, "karma_serve_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, h.counts[len(latencyBuckets)])
		fmt.Fprintf(sb, "karma_serve_request_seconds_sum{endpoint=%q} %s\n", ep, formatFloat(h.sum))
		fmt.Fprintf(sb, "karma_serve_request_seconds_count{endpoint=%q} %d\n", ep, h.count)
	}

	if len(phaseNames) > 0 {
		fmt.Fprintf(sb, "# HELP karma_serve_eval_phase_seconds Wall-clock time inside planner evaluation phases (search, plan_build, simulate).\n")
		fmt.Fprintf(sb, "# TYPE karma_serve_eval_phase_seconds summary\n")
		for _, name := range phaseNames {
			p := phaseSnaps[name]
			fmt.Fprintf(sb, "karma_serve_eval_phase_seconds_sum{phase=%q} %s\n", name, formatFloat(p.sum))
			fmt.Fprintf(sb, "karma_serve_eval_phase_seconds_count{phase=%q} %d\n", name, p.count)
		}
	}

	fmt.Fprintf(sb, "# HELP karma_serve_cache_hits_total Cache lookups that found an entry, by cache layer.\n")
	fmt.Fprintf(sb, "# TYPE karma_serve_cache_hits_total counter\n")
	for _, c := range caches {
		fmt.Fprintf(sb, "karma_serve_cache_hits_total{cache=%q} %d\n", c.name, c.s.Hits)
	}
	fmt.Fprintf(sb, "# HELP karma_serve_cache_misses_total Cache lookups that started a computation, by cache layer.\n")
	fmt.Fprintf(sb, "# TYPE karma_serve_cache_misses_total counter\n")
	for _, c := range caches {
		fmt.Fprintf(sb, "karma_serve_cache_misses_total{cache=%q} %d\n", c.name, c.s.Misses)
	}
	fmt.Fprintf(sb, "# HELP karma_serve_cache_evictions_total Entries dropped by the LRU bound, by cache layer.\n")
	fmt.Fprintf(sb, "# TYPE karma_serve_cache_evictions_total counter\n")
	for _, c := range caches {
		fmt.Fprintf(sb, "karma_serve_cache_evictions_total{cache=%q} %d\n", c.name, c.s.Evictions)
	}
	fmt.Fprintf(sb, "# HELP karma_serve_cache_entries Entries resident, by cache layer.\n")
	fmt.Fprintf(sb, "# TYPE karma_serve_cache_entries gauge\n")
	for _, c := range caches {
		fmt.Fprintf(sb, "karma_serve_cache_entries{cache=%q} %d\n", c.name, c.s.Entries)
	}
}

// formatFloat renders a float the shortest round-trippable way (the
// Prometheus text convention for bucket bounds).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
