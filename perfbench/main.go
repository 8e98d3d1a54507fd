// Command perfbench is karma-serve's benchmark: a closed-loop HTTP load
// generator over loopback plus an in-process traced pass that times the
// public function of every layer a request crosses. See README.md.
//
//	bash perfbench/run.sh --workload eval-mixed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output, the one callers parse.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: eval-cold, eval-mixed or sweep-grid")
		seed     = flag.Int64("seed", 1, "seed of the generated request stream")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics (runs the traced pass)")
		serveBin = flag.String("serve", "", "karma-serve binary to benchmark")
		outDir   = flag.String("out", "perfbench-out", "directory for the run report and span file")
		pass     = flag.Bool("traced-pass", false, "internal: run the in-process traced pass and print its JSON")
		spans    = flag.Bool("spans", true, "internal: record spans in the traced pass")
		spanFile = flag.String("span-file", "", "internal: where the traced pass writes its Chrome trace")
	)
	flag.Parse()
	if *pass {
		if err := tracedPassMain(*workload, *seed, *spans, *spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok || *serveBin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -serve BIN --workload {%v} --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *serveBin, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is the full record of one run, written next to the span file.
type report struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Clients        int               `json:"clients"`
	DaemonCold     bool              `json:"daemon_started_cold"`
	WarmupRequests int               `json:"warmup_requests"`
	WarmupFailed   int               `json:"warmup_failed"`
	Segments       []segment         `json:"segments"`
	Measured       phaseReport       `json:"measured"`
	StatsDelta     promStats         `json:"stats_delta"`
	Probes         map[string]int    `json:"endpoint_probes,omitempty"`
	EndToEnd       metrics           `json:"end_to_end"`
	PerLayer       metrics           `json:"per_layer,omitempty"`
	Unmeasured     map[string]string `json:"unmeasured,omitempty"`
	Traced         *tracedReport     `json:"traced,omitempty"`
	Failures       []failure         `json:"failures"`
	// Digests is the FNV-64a digest of every measured response body, by
	// request index from DigestsFrom (informational).
	DigestsFrom int                `json:"digests_from"`
	Digests     []string           `json:"digests"`
	Counts      map[string]float64 `json:"counts"`
}

type phaseReport struct {
	Attempted map[string]int     `json:"attempted"`
	Failed    map[string]int     `json:"failed"`
	P50ms     map[string]float64 `json:"p50_ms"`
	Samples   int                `json:"samples"`
}

type failure struct {
	Index    int    `json:"index"`
	Phase    string `json:"phase"`
	Endpoint string `json:"endpoint"`
	Body     string `json:"request"`
	Error    string `json:"error"`
}

// segment is one cold daemon: its set-up and its share of the
// measured phase.
type segment struct {
	SetupS     float64   `json:"setup_s"`
	Cold       bool      `json:"daemon_started_cold"`
	Requests   int       `json:"requests"`
	OK         int       `json:"ok"`
	WallS      float64   `json:"wall_s"`
	CPUS       float64   `json:"daemon_cpu_s"`
	RSSMB      float64   `json:"rss_peak_mb"`
	StealShare float64   `json:"host_steal_share"`
	StatsStart promStats `json:"stats_start"`
	StatsEnd   promStats `json:"stats_end"`
}

// segments is how many cold daemons a run's measured phase is split
// over: enough for a median that ignores one disturbed segment, few
// enough that each eval-cold segment's memo growth stays under ~1 GiB.
const segments = 5

// run performs one benchmark run. The measured phase is split over
// `segments` cold daemons, each set up (exec, /healthz, warm-up) and
// then driven for its share of the time; the stream continues across
// segments. Set-up time, throughput, CPU and peak RSS are the medians
// over segments; latencies and shares pool every request. Trace runs
// then probe the endpoints the workload does not carry and run the
// traced pass.
func run(workload string, seed int64, dur time.Duration, traced bool, bin, outDir string) (*result, error) {
	spec := workloads[workload]
	stream, err := NewStream(workload, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Workload: workload, Seed: seed, Seconds: dur.Seconds(), Clients: spec.clients, WarmupRequests: spec.warmup,
		DaemonCold: true, StatsDelta: promStats{}}
	stream.At(spec.warmup) // generate the warm-up outside the set-up clock

	var samples []sample
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	next := spec.warmup
	for k := 0; k < segments; k++ {
		if d != nil {
			d.stop()
		}
		seg, got, err := runSegment(rep, stream, bin, next, dur/time.Duration(segments), &d)
		if err != nil {
			return nil, err
		}
		next += len(got)
		samples = append(samples, got...)
		rep.Segments = append(rep.Segments, seg)
	}

	// Measured-phase accounting.
	ph := phaseReport{Attempted: map[string]int{}, Failed: map[string]int{}, P50ms: map[string]float64{}, Samples: len(samples)}
	byEndpoint := map[string][]float64{}
	var lats []float64
	var ok, bytesOK, verdicts, feasible int
	for _, s := range samples {
		ph.Attempted[s.endpoint]++
		ms := float64(s.lat) / 1e6
		lats = append(lats, ms)
		byEndpoint[s.endpoint] = append(byEndpoint[s.endpoint], ms)
		rep.Digests = append(rep.Digests, fmt.Sprintf("%016x", s.digest))
		if s.err != "" {
			ph.Failed[s.endpoint]++
			rep.Failures = append(rep.Failures, failureOf(stream, s, "measured"))
			continue
		}
		ok++
		bytesOK += s.bytes
		verdicts += s.out.verdicts
		feasible += s.out.feasible
	}
	if ok == 0 {
		return nil, fmt.Errorf("measured phase completed no request")
	}
	for ep, v := range byEndpoint {
		ph.P50ms[ep] = quantile(v, 0.50)
	}
	rep.Measured = ph
	rep.DigestsFrom = spec.warmup
	failed := len(samples) - ok

	var setup, rps, cpu, rss, steal []float64
	for _, g := range rep.Segments {
		steal = append(steal, g.StealShare)
		setup = append(setup, g.SetupS)
		rps = append(rps, float64(g.OK)/g.WallS)
		cpu = append(cpu, g.CPUS*1000/float64(g.OK))
		rss = append(rss, g.RSSMB)
	}
	e2e := metrics{}
	e2e.set("setup_s", median(setup), "s")
	e2e.set("latency_p50_ms", quantile(lats, 0.50), "ms")
	e2e.set("latency_p99_ms", quantile(lats, 0.99), "ms") // pooled over every segment
	e2e.set("throughput_rps", median(rps), "1/s")
	e2e.set("cpu_ms_per_req", median(cpu), "ms")
	e2e.set("rss_peak_mb", median(rss), "MiB")
	e2e.set("ok_share", float64(ok)/float64(len(samples)), "ratio")
	rep.EndToEnd = e2e

	// Cache-state stamps: the property each workload was chosen for.
	st := rep.StatsDelta
	hits, misses := st[`karma_serve_cache_hits_total{cache="response"}`], st[`karma_serve_cache_misses_total{cache="response"}`]
	p99 := quantile(lats, 0.99)
	tail := 0
	for _, l := range lats {
		if l > p99 {
			tail++
		}
	}
	rep.Counts = map[string]float64{
		"host_steal_share":       median(steal), // the host's interference, per segment median
		"latency_samples":        float64(len(lats)),
		"p99_tail_samples":       float64(tail),
		"requests_ok":            float64(ok),
		"requests_failed":        float64(failed),
		"response_hit_share":     share(hits, hits+misses),
		"shape_repeat_share":     shapeRepeatShare(stream, spec.warmup, samples),
		"search_calls_per_req":   st[`karma_serve_eval_phase_seconds_count{phase="search"}`] / float64(ok),
		"verdicts":               float64(verdicts),
		"feasible_verdicts":      float64(feasible),
		"response_body_bytes_ok": float64(bytesOK),
	}

	res := &result{
		Correct:   failed == 0 && rep.WarmupFailed == 0,
		Attempted: len(samples),
		Failed:    failed,
		Metrics:   e2e,
	}
	if traced {
		pl, err := perLayer(rep, d, ok, bytesOK, verdicts, feasible, seed, outDir)
		if err != nil {
			return nil, err
		}
		rep.PerLayer = pl
		res.Metrics = pl
		if len(rep.Failures) > failed {
			res.Correct = false
		}
	}

	printSummary(rep)
	name := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, b2i(traced)))
	if err := writeJSONFile(name, rep); err != nil {
		return nil, err
	}
	fmt.Printf("report: %s\n", name)
	return res, nil
}

// runSegment starts a cold daemon (left in *d for the caller to stop),
// sends the warm-up, and drives the stream from index `from` for dur.
func runSegment(rep *report, stream *Stream, bin string, from int, dur time.Duration, d **daemon) (segment, []sample, error) {
	spec := workloads[rep.Workload]
	var seg segment
	t0 := time.Now()
	var err error
	if *d, err = startDaemon(bin, spec.clients); err != nil {
		return seg, nil, err
	}
	cold, err := (*d).scrape()
	if err != nil {
		return seg, nil, err
	}
	seg.Cold = cacheEntries(cold) == 0
	rep.DaemonCold = rep.DaemonCold && seg.Cold
	warm, _ := drive(*d, stream, spec.clients, 0, spec.warmup, 0)
	seg.SetupS = time.Since(t0).Seconds()
	for _, s := range warm {
		if s.err != "" {
			rep.WarmupFailed++
			rep.Failures = append(rep.Failures, failureOf(stream, s, "warmup"))
		}
	}

	pid := (*d).cmd.Process.Pid
	if seg.StatsStart, err = (*d).scrape(); err != nil {
		return seg, nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return seg, nil, err
	}
	steal0, total0, err := hostSteal()
	if err != nil {
		return seg, nil, err
	}
	samples, wall := drive(*d, stream, spec.clients, from, -1, dur)
	cpu1, err := procCPU(pid)
	if err != nil {
		return seg, nil, err
	}
	steal1, total1, err := hostSteal()
	if err != nil {
		return seg, nil, err
	}
	seg.StealShare = share(steal1-steal0, total1-total0)
	if seg.StatsEnd, err = (*d).scrape(); err != nil {
		return seg, nil, err
	}
	if seg.RSSMB, err = vmHWM(pid); err != nil {
		return seg, nil, err
	}
	for k, v := range seg.StatsEnd {
		rep.StatsDelta[k] += v - seg.StatsStart[k]
	}
	seg.Requests, seg.WallS, seg.CPUS = len(samples), wall.Seconds(), cpu1-cpu0
	for _, s := range samples {
		if s.err == "" {
			seg.OK++
		}
	}
	if seg.OK == 0 {
		return seg, nil, fmt.Errorf("a measured segment completed no request")
	}
	return seg, samples, nil
}

// cacheEntries sums the resident entries of every cache layer.
func cacheEntries(st promStats) float64 {
	n := 0.0
	for _, c := range []string{"response", "graphs", "evaluator_shared", "evaluator_planned"} {
		n += st[fmt.Sprintf(`karma_serve_cache_entries{cache=%q}`, c)]
	}
	return n
}

func failureOf(s *Stream, smp sample, phase string) failure {
	r := s.At(smp.idx)
	return failure{Index: smp.idx, Phase: phase, Endpoint: r.Endpoint, Body: string(r.Body), Error: smp.err}
}

// shapeRepeatShare is the share of measured requests whose model shape
// (the transformer configuration or model name; the whole body for a
// sweep) was already sent earlier in the run, warm-up included.
func shapeRepeatShare(s *Stream, warmup int, samples []sample) float64 {
	seen := map[string]bool{}
	key := func(r Request) string {
		if r.Eval == nil {
			return string(r.Body)
		}
		if r.Eval.Transformer != nil {
			return fmt.Sprintf("%+v", *r.Eval.Transformer)
		}
		return r.Eval.Model
	}
	for i := 0; i < warmup; i++ {
		seen[key(s.At(i))] = true
	}
	repeats := 0
	for _, smp := range samples {
		k := key(s.At(smp.idx))
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return float64(repeats) / float64(len(samples))
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the nearest-rank q-quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func writeJSONFile(name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(b, '\n'), 0o644)
}

// printSummary writes the human-readable run summary.
func printSummary(rep *report) {
	fmt.Printf("workload %s seed %d: %d clients, %.0fs measured, daemon started cold: %v, warm-up %d requests (%d failed)\n",
		rep.Workload, rep.Seed, rep.Clients, rep.Seconds, rep.DaemonCold, rep.WarmupRequests, rep.WarmupFailed)
	for i, g := range rep.Segments {
		fmt.Printf("  segment %d: set-up %.3fs, %d requests in %.3fs, daemon CPU %.2fs, peak RSS %.0f MiB, host steal %.1f%%\n",
			i, g.SetupS, g.Requests, g.WallS, g.CPUS, g.RSSMB, 100*g.StealShare)
	}
	for _, ep := range endpoints {
		if n := rep.Measured.Attempted[ep]; n > 0 {
			fmt.Printf("  %-16s attempted %6d  failed %4d  p50 %.3f ms\n", ep, n, rep.Measured.Failed[ep], rep.Measured.P50ms[ep])
		}
	}
	printMetrics("end-to-end", rep.EndToEnd)
	printMetrics("counts", toMetrics(rep.Counts))
	if rep.PerLayer != nil {
		printMetrics("per-layer", rep.PerLayer)
		for _, k := range sortedKeys(rep.Unmeasured) {
			fmt.Printf("  unmeasured %s: %s\n", k, rep.Unmeasured[k])
		}
	}
	if rep.Traced != nil {
		t := rep.Traced
		fmt.Printf("traced pass: %d requests, wall %.3fs spans on vs %.3fs off, overhead %+.2f%%, span file %s\n",
			t.Requests, t.WallOnS, t.WallOffS, 100*t.Overhead, t.SpanFile)
		for _, l := range t.Layers {
			fmt.Printf("  self time %-12s %10.3f ms over %5d spans\n", l.Layer, l.SelfMS, l.Spans)
		}
	}
	for i, f := range rep.Failures {
		if i == 20 {
			fmt.Printf("  ... %d more failures in the report\n", len(rep.Failures)-i)
			break
		}
		fmt.Printf("  FAILED %s #%d %s %s: %s\n", f.Phase, f.Index, f.Endpoint, f.Body, f.Error)
	}
}

func toMetrics(c map[string]float64) metrics {
	m := metrics{}
	for k, v := range c {
		m.set(k, v, "")
	}
	return m
}

func printMetrics(title string, m metrics) {
	fmt.Printf("%s:\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
