package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"karma/internal/dist"
	"karma/internal/experiments"
	kgraph "karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/serve"
	"karma/internal/sim"
	"karma/internal/tensor"
	"karma/internal/topo"
	"karma/internal/trace"
)

// The traced pass replays a workload's seeded stream in-process through
// serve's handler, then calls the public function of every layer
// directly, recording a span around each call. It runs in a fresh
// process (so every cache starts cold) twice: once with spans off and
// once with spans on; the wall-time difference is the tracing overhead.

// replayRequests is how many measured-phase requests the handler replay
// sends after the workload's warm-up, sized to a few seconds per pass.
var replayRequests = map[string]int{"eval-cold": 400, "eval-mixed": 2000, "sweep-grid": 60}

const (
	probesPerFamily = 6 // direct dist evaluations (and layer probes) per family
	probeRequestID  = 1 << 20
	panelRequestID  = 2 << 20
)

// span is one timed call. Name is the program's phase vocabulary
// (request, serve, graph, profile, search, plan_build, simulate, export,
// encode, sweep); Layer the repo module whose function ran; Call the
// function; N an optional size the call produced (nodes, blocks, ops...).
type span struct {
	ID, Parent, Req   int
	Name, Layer, Call string
	Start, End        time.Duration
	N                 float64
}

// tracer keeps spans in memory; with on == false it only runs the calls.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// do runs fn inside a span and returns the span's ID (-1 when off).
func (t *tracer) do(name, layer, call string, parent, req int, fn func(id int) float64) int {
	if !t.on {
		fn(-1)
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Call: call})
	start := time.Since(t.t0)
	n := fn(id)
	s := &t.spans[id]
	s.Start, s.End, s.N = start, time.Since(t.t0), n
	return id
}

// observed records a child span that ended now and lasted seconds (the
// planned evaluator's Observe feed reports durations after the fact).
func (t *tracer) observed(phase string, seconds float64, parent, req int) {
	if !t.on {
		return
	}
	end := time.Since(t.t0)
	layer := map[string]string{"search": "karma", "plan_build": "karma", "simulate": "sim"}[phase]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: phase, Layer: layer,
		Call: "dist.Planned.Observe/" + phase, Start: end - time.Duration(seconds*1e9), End: end})
}

// layerSelf is one layer's self time over the pass.
type layerSelf struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Spans  int     `json:"spans"`
}

// tracedReport is what a pass prints (and what the parent merges).
type tracedReport struct {
	Requests int            `json:"requests"`
	Failed   int            `json:"failed"`
	Failures []failure      `json:"failures,omitempty"`
	WallOnS  float64        `json:"wall_on_s"`
	WallOffS float64        `json:"wall_off_s"`
	Overhead float64        `json:"overhead_share"`
	SpanFile string         `json:"span_file,omitempty"`
	Spans    int            `json:"spans"`
	Layers   []layerSelf    `json:"layers,omitempty"`
	Calls    map[string]int `json:"call_samples,omitempty"`
	Metrics  metrics        `json:"metrics,omitempty"`
}

// runTracedPasses runs the pass twice in child processes (spans off,
// then on) and returns the spans-on report with the overhead filled in.
func runTracedPasses(workload string, seed int64, spanFile string) (*tracedReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps [2]tracedReport
	for i, on := range []bool{false, true} {
		cmd := exec.Command(self, "-traced-pass", "-workload", workload, "-seed", fmt.Sprint(seed),
			fmt.Sprintf("-spans=%v", on), "-span-file", spanFile)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("traced pass (spans %v): %w", on, err)
		}
		if err := json.Unmarshal(out, &reps[i]); err != nil {
			return nil, fmt.Errorf("traced pass (spans %v) output: %w", on, err)
		}
	}
	r := reps[1]
	r.WallOffS = reps[0].WallOnS
	r.Overhead = r.WallOnS/r.WallOffS - 1
	return &r, nil
}

// tracedPassMain is the child-process entry point.
func tracedPassMain(workload string, seed int64, on bool, spanFile string) error {
	t := &tracer{on: on, t0: time.Now()}
	rep, err := tracedPass(t, workload, seed)
	if err != nil {
		return err
	}
	rep.WallOnS = time.Since(t.t0).Seconds()
	if on {
		rep.Spans = len(t.spans)
		rep.Layers = selfTimes(t.spans)
		callMetrics(t.spans, rep)
		if spanFile != "" {
			if err := writeChromeSpans(spanFile, t.spans); err != nil {
				return err
			}
			rep.SpanFile = spanFile
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// tracedPass does the pass's work; metrics that are not span durations
// land in the returned report.
func tracedPass(t *tracer, workload string, seed int64) (*tracedReport, error) {
	rep := &tracedReport{Metrics: metrics{}}
	stream, err := NewStream(workload, seed)
	if err != nil {
		return nil, err
	}
	spec := workloads[workload]

	// 1. Handler replay: warm-up untraced, then request -> serve spans.
	srv := serve.New(serve.Config{})
	h := srv.Handler()
	serveOne := func(r Request) (int, []byte) {
		req := httptest.NewRequest(http.MethodPost, r.Endpoint, bytes.NewReader(r.Body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	for i := 0; i < spec.warmup; i++ {
		serveOne(stream.At(i))
	}
	n := replayRequests[workload]
	rt0 := readRuntime()
	for i := spec.warmup; i < spec.warmup+n; i++ {
		r := stream.At(i)
		t.do("request", "client", "perfbench.request", -1, i, func(id int) float64 {
			var code int
			var body []byte
			t.do("serve", "serve", "serve.Handler.ServeHTTP", id, i, func(int) float64 {
				code, body = serveOne(r)
				return float64(len(body))
			})
			if s := judge(r, i, code, body, nil); s.err != "" {
				rep.Failed++
				rep.Failures = append(rep.Failures, failureOf(stream, s, "traced"))
			}
			return 0
		})
	}
	rt1 := readRuntime()
	rep.Requests = n
	rep.Metrics.set("runtime.alloc_kb_per_req", (rt1.allocBytes-rt0.allocBytes)/1024/float64(n), "KiB")
	rep.Metrics.set("runtime.gc_cpu_share", share(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")

	// 2. Direct layer probes on fresh shapes from the eval-cold stream.
	if err := layerProbes(t, seed, rep); err != nil {
		return nil, err
	}
	// 3. Panels with the sweep-grid arguments.
	if err := panelProbes(t, seed); err != nil {
		return nil, err
	}
	return rep, nil
}

type runtimeSample struct{ allocBytes, allocObjects, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	f := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{f(s[0].Value), f(s[1].Value), f(s[2].Value), f(s[3].Value)}
}

// evalDirect dispatches one evaluate request to the planned evaluator,
// the way serve does after normalization.
func evalDirect(ev *dist.Planned, r *serve.EvaluateRequest, cl hw.Cluster, prec tensor.Precision) (*dist.Result, error) {
	ho := dist.HybridOptions{Phased: r.Phased, Checkpoint: r.Ckpt, Precision: prec}
	switch r.Family {
	case "karma-dp":
		return ev.KARMADataParallel(dist.CachedTransformer(*r.Transformer), cl, r.GPUs, r.Batch, r.Samples, dist.KARMAOptions{Precision: prec})
	case "dp":
		return ev.DataParallel(dist.CachedTransformer(*r.Transformer), cl, r.GPUs, r.Batch, r.Samples)
	case "mp+dp":
		return ev.MegatronHybrid(*r.Transformer, cl, r.MP, r.GPUs, r.Batch, r.Samples, ho)
	case "zero":
		return ev.ZeRO(*r.Transformer, cl, r.MP, r.GPUs, r.Batch, r.Samples, ho)
	case "pipeline":
		return ev.Pipeline(*r.Transformer, cl, r.Stages, r.GPUs, r.Batch, r.Micro, r.Samples, ho)
	}
	return nil, fmt.Errorf("unknown family %q", r.Family)
}

func exportDirect(pe *dist.Planned, r *serve.EvaluateRequest, cl hw.Cluster, prec tensor.Precision) (*dist.PlanExport, error) {
	ho := dist.HybridOptions{Phased: r.Phased, Checkpoint: r.Ckpt, Precision: prec}
	switch r.Family {
	case "karma-dp":
		return pe.ExportKARMA(dist.CachedTransformer(*r.Transformer), cl, r.GPUs, r.Batch, r.Samples, dist.KARMAOptions{Precision: prec})
	case "mp+dp", "zero":
		return pe.ExportHybrid(*r.Transformer, cl, r.MP, r.GPUs, r.Batch, r.Samples, r.Family == "zero", ho)
	case "pipeline":
		return pe.ExportPipeline(*r.Transformer, cl, r.Stages, r.GPUs, r.Batch, r.Micro, r.Samples, ho)
	}
	return nil, fmt.Errorf("family %q has no plan to export", r.Family)
}

func clusterOf(c serve.ClusterSpec) (hw.Cluster, error) {
	cl := hw.ABCI()
	cl.Nodes = c.Nodes
	tp, err := topo.Parse(c.Topology)
	if err != nil {
		return hw.Cluster{}, err
	}
	return cl.WithTopology(tp), nil
}

// layerProbes times model, profiler, karma, plan, sim, dist and trace
// calls on shapes drawn from the eval-cold stream: fresh to this
// process, so every call runs from nothing. Each shape is two requests:
// one calling the layers below dist directly, one evaluating (and, when
// feasible, exporting) through a planned evaluator whose Observe feed
// gives the search, plan_build and simulate child spans.
func layerProbes(t *tracer, seed int64, rep *tracedReport) error {
	cold, err := NewStream("eval-cold", seed)
	if err != nil {
		return err
	}
	pe := dist.NewPlanned()
	parent, req := -1, 0
	pe.Observe(func(phase string, seconds float64) { t.observed(phase, seconds, parent, req) })
	var comp plan.Compiler
	var runner sim.Runner
	perFamily := map[string]int{}
	for i, done := 0, 0; done < len(evalFamilies); i++ {
		r := cold.At(i)
		e := r.Eval
		if perFamily[e.Family] == probesPerFamily {
			continue
		}
		if perFamily[e.Family]++; perFamily[e.Family] == probesPerFamily {
			done++
		}
		prec, err := tensor.ParsePrecision(e.Precision)
		if err != nil {
			return err
		}
		cl, err := clusterOf(e.Cluster)
		if err != nil {
			return err
		}
		req = probeRequestID + 2*i
		t.do("request", "client", "perfbench.probe", -1, req, func(id int) float64 {
			probeLayers(t, id, req, e, cl, prec, &comp, &runner)
			return 0
		})

		req++
		var res *dist.Result
		t.do("request", "dist", "dist.Planned/"+e.Family, -1, req, func(id int) float64 {
			parent = id
			res, err = evalDirect(pe, e, cl, prec)
			return 0
		})
		if err != nil {
			return fmt.Errorf("evaluating %s: %w", r.Body, err)
		}
		if !res.Feasible || e.Family == "dp" {
			continue
		}
		var ex *dist.PlanExport
		t.do("export", "dist", "dist.Planned.Export", -1, req, func(id int) float64 {
			parent = id
			ex, err = exportDirect(pe, e, cl, prec)
			return 0
		})
		if err != nil {
			rep.Failed++
			rep.Failures = append(rep.Failures, failure{Index: i, Phase: "probe", Endpoint: "dist.Export", Body: string(r.Body), Error: err.Error()})
			continue
		}
		t.do("encode", "trace", "trace.WriteChrome", -1, req, func(int) float64 {
			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, trace.Collect(ex.Compiled.Ops, ex.Timeline)); err != nil {
				return 0
			}
			return float64(buf.Len())
		})
	}
	return nil
}

var evalFamilies = []string{"karma-dp", "dp", "mp+dp", "zero", "pipeline"}

// probeLayers calls each layer below dist once for one shape, the way
// the planned KARMA path chains them: graph, profile, Opt-1/Opt-2
// search (residency regime, then streaming), checkpoint search, plan
// build, compile, simulate.
func probeLayers(t *tracer, root, req int, e *serve.EvaluateRequest, cl hw.Cluster, prec tensor.Precision, comp *plan.Compiler, runner *sim.Runner) {
	cfg := *e.Transformer
	var g *kgraph.Graph
	t.do("graph", "model", "model.Transformer", root, req, func(int) float64 {
		g = model.Transformer(cfg)
		return float64(g.Len())
	})
	t.do("graph", "model", "model.TransformerShard", root, req, func(int) float64 {
		return float64(model.TransformerShard(cfg, max(e.MP, 1)).Graph.Len())
	})
	var p *profiler.Profile
	var err error
	t.do("profile", "profiler", "profiler.New", root, req, func(int) float64 {
		if p, err = profiler.New(g, cl.Node, profiler.Options{Batch: e.Batch, DType: prec.DType()}); err != nil {
			return 0
		}
		return float64(len(p.Blocks))
	})
	if err != nil {
		return
	}
	var s *karma.Schedule
	t.do("search", "karma", "karma.Plan", root, req, func(int) float64 {
		opts := karma.Options{GradScale: 1, Seed: 1}
		if s, err = karma.Plan(p, opts); err != nil {
			opts.StreamWeights = true
			s, err = karma.Plan(p, opts)
		}
		return 0
	})
	planErr := err
	if budget, berr := karma.BudgetFor(p, 0.05); berr == nil {
		t.do("search", "karma", "karma.Checkpoint", root, req, func(int) float64 {
			karma.Checkpoint(p, budget)
			return 0
		})
	}
	t.do("search", "karma", "karma.CheckpointFootprint", root, req, func(int) float64 {
		before := readRuntime().allocObjects
		karma.CheckpointFootprint(p)
		return readRuntime().allocObjects - before
	})
	if planErr != nil {
		return // no schedule in either regime: nothing to build
	}
	var pl *plan.Plan
	t.do("plan_build", "karma", "karma.BuildPlan", root, req, func(int) float64 {
		if pl, err = karma.BuildPlan(s); err != nil {
			return 0
		}
		return float64(s.NumBlocks())
	})
	if err != nil {
		return
	}
	var c *plan.Compiled
	t.do("simulate", "plan", "plan.Compiler.Compile", root, req, func(int) float64 {
		if c, err = comp.Compile(pl); err != nil {
			return 0
		}
		return float64(len(c.Ops))
	})
	if err != nil {
		return
	}
	ops := append([]sim.Op(nil), c.Ops...) // the compiler's arena is reused by the next Compile
	runner.Run(ops, s.Budget)              // warm the runner's arenas for this plan
	t.do("simulate", "sim", "sim.Runner.Run", root, req, func(int) float64 {
		runner.Run(ops, s.Budget)
		return float64(len(ops))
	})
}

var panels = []string{"fig8-megatron", "fig8-turing", "table4", "table5", "topo"}

// runPanel calls the experiments function behind a sweep request.
func runPanel(r *serve.SweepRequest, ev dist.Evaluator, workers int) error {
	cl, err := clusterOf(r.Cluster)
	if err != nil {
		return err
	}
	prec, err := tensor.ParsePrecision(r.Precision)
	if err != nil {
		return err
	}
	fo := experiments.FamilyOptions{Ckpt: *r.Ckpt, Precision: prec, Pipeline: r.Pipeline, Workers: workers}
	switch r.Panel {
	case "fig8-megatron":
		_, err = experiments.Figure8Megatron(cl, *r.Config, r.GPUs, ev, fo)
	case "fig8-turing":
		_, err = experiments.Figure8Turing(cl, r.GPUs, ev, fo)
	case "table4":
		_, err = experiments.TableIV(cl, ev, fo)
	case "table5":
		_, err = experiments.TableV(cl, ev, workers)
	case "topo":
		_, err = experiments.TopologySweep(cl, r.GPUs[0], experiments.TopoLadder(), ev, fo)
	default:
		err = fmt.Errorf("unknown panel %q", r.Panel)
	}
	return err
}

// panelProbes runs, for each panel, the first sweep of the sweep-grid
// stream that regenerates it: once cold, then memo-warm with NumCPU
// workers (experiments.panel_ms) and with one worker (sweep.speedup).
func panelProbes(t *tracer, seed int64) error {
	sweeps, err := NewStream("sweep-grid", seed)
	if err != nil {
		return err
	}
	planned := dist.NewPlanned()
	for pi, panel := range panels {
		var r *serve.SweepRequest
		for i := 0; r == nil; i++ {
			if s := sweeps.At(i).Sweep; s.Panel == panel {
				r = s
			}
		}
		var ev dist.Evaluator = dist.Analytic{}
		if r.Backend == "planned" {
			ev = planned
		}
		req := panelRequestID + pi
		for _, run := range []struct {
			call    string
			workers int
		}{{"/cold", runtime.NumCPU()}, {"", runtime.NumCPU()}, {"/workers=1", 1}} {
			t.do("sweep", "experiments", "experiments."+panel+run.call, -1, req, func(int) float64 {
				err = runPanel(r, ev, run.workers)
				return 0
			})
			if err != nil {
				return fmt.Errorf("panel %s: %w", panel, err)
			}
		}
	}
	return nil
}

// selfTimes sums each layer's self time: a span's duration minus the
// time its child spans cover.
func selfTimes(spans []span) []layerSelf {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerSelf{}
	for i, s := range spans {
		l := by[s.Layer]
		if l == nil {
			l = &layerSelf{Layer: s.Layer}
			by[s.Layer] = l
		}
		l.SelfMS += max(float64(s.End-s.Start-child[i]), 0) / 1e6
		l.Spans++
	}
	out := make([]layerSelf, 0, len(by))
	for _, k := range sortedKeys(by) {
		out = append(out, *by[k])
	}
	return out
}

// callMetrics turns span durations and sizes into the per-layer
// metrics: the median over every call of one function.
func callMetrics(spans []span, rep *tracedReport) {
	durs := map[string][]float64{}
	sizes := map[string][]float64{}
	for _, s := range spans {
		durs[s.Call] = append(durs[s.Call], float64(s.End-s.Start))
		sizes[s.Call] = append(sizes[s.Call], s.N)
	}
	rep.Calls = map[string]int{}
	for k, v := range durs {
		rep.Calls[k] = len(v)
	}
	m := rep.Metrics
	timed := func(name, call string, scale float64, unit string) {
		if v := durs[call]; len(v) > 0 {
			m.set(name, median(v)/scale, unit)
		}
	}
	sized := func(name, call string, scale float64, unit string) {
		if v := sizes[call]; len(v) > 0 {
			m.set(name, median(v)/scale, unit)
		}
	}
	const us, ms = 1e3, 1e6
	timed("serve.handler_p50_us", "serve.Handler.ServeHTTP", us, "us")
	for _, f := range evalFamilies {
		timed("dist.eval_ms."+metricFamily(f), "dist.Planned/"+f, ms, "ms")
	}
	timed("dist.export_ms", "dist.Planned.Export", ms, "ms")
	timed("model.transformer_ms", "model.Transformer", ms, "ms")
	sized("model.nodes", "model.Transformer", 1, "count")
	timed("model.shard_ms", "model.TransformerShard", ms, "ms")
	timed("profiler.new_ms", "profiler.New", ms, "ms")
	sized("profiler.blocks", "profiler.New", 1, "count")
	timed("karma.plan_ms", "karma.Plan", ms, "ms")
	timed("karma.checkpoint_ms", "karma.Checkpoint", ms, "ms")
	timed("karma.footprint_ms", "karma.CheckpointFootprint", ms, "ms")
	sized("karma.footprint_allocs", "karma.CheckpointFootprint", 1, "count")
	timed("karma.buildplan_us", "karma.BuildPlan", us, "us")
	sized("karma.blocks", "karma.BuildPlan", 1, "count")
	timed("plan.compile_us", "plan.Compiler.Compile", us, "us")
	sized("plan.ops", "plan.Compiler.Compile", 1, "count")
	timed("sim.run_us", "sim.Runner.Run", us, "us")
	if v := durs["sim.Runner.Run"]; len(v) > 0 {
		rates := make([]float64, len(v))
		for i := range v {
			rates[i] = sizes["sim.Runner.Run"][i] / (v[i] / 1e9)
		}
		m.set("sim.ops_per_s", median(rates), "1/s")
	}
	timed("trace.write_ms", "trace.WriteChrome", ms, "ms")
	sized("trace.kb", "trace.WriteChrome", 1024, "KiB")
	var one, all float64
	for _, p := range panels {
		timed("experiments.panel_ms."+p, "experiments."+p, ms, "ms")
		for _, d := range durs["experiments."+p] {
			all += d
		}
		for _, d := range durs["experiments."+p+"/workers=1"] {
			one += d
		}
	}
	if all > 0 {
		m.set("sweep.speedup", one/all, "ratio")
	}
}

// metricFamily spells a family the way metric names allow.
func metricFamily(f string) string {
	if f == "mp+dp" {
		return "mp-dp"
	}
	return f
}

// writeChromeSpans writes the spans as a Perfetto-loadable Chrome trace:
// complete events on one thread, nested by time, with the span's ID,
// parent, request and call as arguments.
func writeChromeSpans(name string, spans []span) error {
	type event struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Cat: s.Layer, Phase: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: 1, Args: map[string]any{"id": s.ID, "parent": s.Parent, "request": s.Req, "call": s.Call, "n": s.N}}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return writeJSONFile(name, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
