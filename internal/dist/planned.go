package dist

import (
	"fmt"
	"math"
	"sort"
	"time"

	"karma/internal/comm"
	"karma/internal/flight"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/sim"
	"karma/internal/unit"
)

// Planned is the planner-backed evaluator: instead of the closed-form
// heavy/cheap activation split, each KARMA replica derives a per-replica
// profile (sharded batch, optionally ZeRO-shrunk gradient footprint),
// runs the real two-tier partition search (karma.Plan: Opt-1 blocking,
// Opt-2 recompute interleave — at cluster scale in the §III-G
// weight-streaming regime), and feeds the schedule through the event
// simulator with the phased gradient exchange of internal/comm injected
// as Network-stream ops, so swap and recompute stalls overlap the
// exchange exactly as in Fig. 3.
//
// Replica profiles come from the value-keyed profile cache both backends
// share (memo.go), and partition searches are cached per evaluator by
// (profile, planner options), so sweeps re-plan each replica shape once
// and re-simulate only the cheap exchange composition per configuration.
// Note that under ZeROShard the gradient shard (1/gpus) is part of the
// replica shape — each GPU count genuinely plans a different footprint —
// so a ZeRO sweep replans per GPU count by design. A Config naming its
// Transformer profiles it by value; a caller's graph is keyed by
// pointer, so build it through CachedModel or CachedTransformer, which
// make equal models one pointer.
//
// The schedule cache is a singleflight LRU (flight.Cache), so one shared
// Planned serves a parallel sweep: concurrent grid points that need the
// same partition search block on one computation instead of duplicating
// or serializing it, and distinct keys plan in parallel. The hybrid and
// pipeline profiles and shard schedules come from the process-wide
// caches both backends share (see hybridSetup).
//
// The in-core hybrid baselines (MegatronHybrid, ZeRO) run per layer too:
// the 1/mp shard of model.TransformerShard is profiled, its in-core (or
// checkpointed) schedule lowered to a plan, the blocking MP all-reduces
// and the data-parallel exchange injected as collective-stream ops, and
// the whole iteration simulated — so compute/collective overlap and
// checkpoint-recompute stalls interact per layer (see planned_hybrid.go).
// Conventional DataParallel stays on the closed form, which is exact for
// a schedule with no overlap structure at all. When the partition search
// or the simulator cannot cost a configuration the shared precheck deems
// feasible, Planned falls back to the analytic cost (the result keeps
// its "analytic" tag in Result.Backend) rather than diverging on the
// feasibility verdict.
type Planned struct {
	schedules *flight.Cache[schedKey, planOutcome]

	// observe, when set, receives the wall-clock duration of each
	// evaluation phase (see Observe). nil on the hot path: no clock reads.
	observe func(phase string, seconds float64)

	// failSim, when set, makes every simulation attempt report an error,
	// forcing the analytic fallback paths. It exists only so the fallback
	// tagging contract (Backend stays "analytic", Ckpt still recorded)
	// can be regression-tested; nothing outside the tests sets it.
	failSim bool
}

// Observe registers a callback receiving the wall-clock seconds spent in
// each evaluation phase: "search" (the karma.Plan partition search),
// "plan_build" (plan lowering and collective injection), and "simulate"
// (the event simulator). Register before serving evaluations; the
// callback may be invoked concurrently and must synchronize itself.
// With no observer registered the evaluator never reads the clock.
func (pe *Planned) Observe(fn func(phase string, seconds float64)) {
	pe.observe = fn
}

// timed runs fn, reporting its duration to the observer when one is
// registered.
func (pe *Planned) timed(phase string, fn func()) {
	if pe.observe == nil {
		fn()
		return
	}
	//karma:det-ok phase timings are observability wall-clock; no model output depends on them
	start := time.Now()
	fn()
	pe.observe(phase, time.Since(start).Seconds())
}

type schedKey struct {
	p    *profiler.Profile
	opts karma.Options
}

// NewPlanned returns a planner-backed evaluator with an empty schedule
// cache.
func NewPlanned() *Planned {
	return &Planned{schedules: flight.New[schedKey, planOutcome](memoLimit)}
}

// errForcedFallback is returned by the simulation paths under the
// failSim test hook.
var errForcedFallback = fmt.Errorf("dist: simulation disabled (test hook)")

// Name implements Evaluator.
func (*Planned) Name() string { return "planned" }

// planOutcome is a cached partition-search verdict. karma.Plan is a
// pure function of (profile, options), so "no feasible schedule" is as
// deterministic as a schedule and is cached as a value — plannedIter
// probes the residency regime first and falls back to weight-streaming
// on failure, and a sweep must not re-run that failing search per grid
// point. The cache itself never retains errors (transient failures would
// retry); the error lives inside the value by the caller's choice.
type planOutcome struct {
	s   *karma.Schedule
	err error
}

// plan returns the cached planner schedule for (profile, options).
func (pe *Planned) plan(p *profiler.Profile, opts karma.Options) (*karma.Schedule, error) {
	out := must(pe.schedules.Do(schedKey{p: p, opts: opts}, func() (planOutcome, error) {
		s, err := karma.Plan(p, opts)
		return planOutcome{s: s, err: err}, nil
	}))
	return out.s, out.err
}

// KARMADataParallel implements Evaluator with the planner-backed replica
// cost.
func (pe *Planned) KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	src, err := graphSrc(g)
	if err != nil {
		return nil, err
	}
	return pe.karma(src, cl, gpus, perReplicaBatch, samples, o, nil)
}

func (pe *Planned) karmaDataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	return pe.karma(src, cl, gpus, perReplicaBatch, samples, o, nil)
}

// karma is KARMADataParallel on a model source; a non-nil ex keeps the
// simulated replica plan (see ExportKARMA).
func (pe *Planned) karma(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions, ex *PlanExport) (*Result, error) {
	p, bad, err := replicaSetup(src, cl, gpus, perReplicaBatch, samples, o.Precision.DType())
	if err != nil {
		return nil, err
	}
	global := gpus * perReplicaBatch
	stamp := func(r *Result) *Result { r.Backend = pe.Name(); return r }
	if bad != nil {
		return stamp(bad), nil
	}
	m := budget(cl)
	if mb := maxBlockBytes(p); mb > m {
		// Shared verdict with the analytic backend: a single block that
		// cannot fit is infeasible under any policy.
		return stamp(infeasible(gpus, global, "largest block needs %v of %v device memory", mb, m)), nil
	}
	weights := p.TotalWeightBytes
	grads := weights
	gs := 1.0
	if o.ZeROShard {
		gs = 1 / float64(gpus)
		grads = unit.Bytes(math.Ceil(float64(weights) / float64(gpus)))
	}
	if weights+grads+p.TotalActBytes <= m {
		// Fully in-core the planner degenerates to conventional data
		// parallelism and the closed form is exact; both backends agree
		// bit-for-bit here by construction.
		r := karmaClosedForm(p, cl, gpus, perReplicaBatch, samples, o)
		if ex != nil {
			// The closed form has no schedule: export the partition
			// search's instead (see ExportKARMA).
			if _, _, err := pe.plannedIter(p, cl, gpus, o, gs, ex); err != nil {
				return nil, err
			}
		}
		return stamp(r), nil
	}
	iter, bd, err := pe.plannedIter(p, cl, gpus, o, gs, ex)
	if err != nil {
		if ex != nil {
			return nil, err // an export has no plan to keep
		}
		// The search found no simulable schedule for a configuration the
		// shared precheck deems feasible: keep the feasibility verdict
		// aligned and fall back to the closed form (tagged "analytic").
		return karmaClosedForm(p, cl, gpus, perReplicaBatch, samples, o), nil
	}
	r := finalize(iter, gpus, global, samples)
	r.Breakdown = bd
	return stamp(r), nil
}

// search returns the replica schedule: the single-GPU residency regime
// (weights resident, only activations stream) when it fits, else the
// §III-G weight-streaming regime.
func (pe *Planned) search(p *profiler.Profile, gs float64) (*karma.Schedule, error) {
	opts := karma.Options{GradScale: gs, Seed: 1}
	s, err := pe.plan(p, opts)
	if err != nil {
		opts.StreamWeights = true
		s, err = pe.plan(p, opts)
	}
	return s, err
}

// plannedIter plans one replica and simulates its iteration with the
// phased gradient exchange overlapped, keeping the simulation in ex when
// it is non-nil. The returned breakdown derives from the simulated
// timeline (timelineBreakdown) with the update cost — which the
// simulation does not schedule — added to both the iteration and its
// Update component, so the attribution still sums to the iteration time.
func (pe *Planned) plannedIter(p *profiler.Profile, cl hw.Cluster, gpus int, o KARMAOptions, gs float64, ex *PlanExport) (unit.Seconds, *Breakdown, error) {
	if pe.failSim {
		return 0, nil, errForcedFallback
	}
	var s *karma.Schedule
	var err error
	pe.timed("search", func() { s, err = pe.search(p, gs) })
	if err != nil {
		return 0, nil, err
	}
	var pl *plan.Plan
	pe.timed("plan_build", func() {
		pl, err = karma.BuildPlan(s)
		if err != nil {
			return
		}
		if o.UpdateOnDevice {
			addMomentumTraffic(pl, s, cl, o, gpus)
		}
		if gpus > 1 {
			injectExchange(pl, s, cl, gpus)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	var c *plan.Compiled
	var tl *sim.Timeline
	pe.timed("simulate", func() {
		c, tl, err = pl.Simulate(s.Budget)
	})
	if err != nil {
		return 0, nil, err
	}
	ex.keep(pl, c, tl, s.Budget)
	upd := updateCost(s, cl, o, gs)
	b := timelineBreakdown(c, tl)
	b.Update += upd
	return tl.Makespan + upd, b, nil
}

// updateCost returns the weight-update time on the iteration's critical
// path: the device-side update of resident (and, under UpdateOnDevice,
// streamed) blocks serializes; the host-side update of streamed blocks
// overlaps the next iteration's forward pass and only the excess stalls
// — the same accounting as the analytic replica model.
func updateCost(s *karma.Schedule, cl hw.Cluster, o KARMAOptions, gs float64) unit.Seconds {
	var devF, hostF float64
	var fwd unit.Seconds
	for _, b := range s.Blocks {
		fwd += b.Cost.FwdTime
		u := gs * float64(b.Cost.UpdateFLOPs)
		if o.UpdateOnDevice || b.Policy == karma.Keep || b.WBytes == 0 {
			devF += u
		} else {
			hostF += u
		}
	}
	t := unit.ComputeTime(unit.FLOPs(devF), cl.Node.Device.SustainedFLOPS())
	if hostT := unit.ComputeTime(unit.FLOPs(hostF), cl.Node.Host.SustainedFLOPS()); hostT > fwd {
		t += hostT - fwd
	}
	return t
}

// addMomentumTraffic models ablation A4 on a planned schedule: forcing
// streamed blocks to update on the GPU round-trips their momentum
// buffers over the link, inflating the backward weight refetch and the
// gradient drain of every streamed block. The buffers are fp32 in both
// precision regimes (ZeRO partitions momentum like the rest of the
// optimizer state).
func addMomentumTraffic(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, o KARMAOptions, gpus int) {
	swapBW := hw.SwapThroughput(cl.Node)
	lat := cl.Node.Link.Latency
	lastIn := map[int]*plan.Op{}
	lastOut := map[int]*plan.Op{}
	for si := range pl.Stages {
		for oi := range pl.Stages[si].Ops {
			op := &pl.Stages[si].Ops[oi]
			switch op.Kind {
			case plan.SwapIn:
				lastIn[op.Block] = op
			case plan.SwapOut:
				lastOut[op.Block] = op
			}
		}
	}
	for b, blk := range s.Blocks {
		if blk.Policy == karma.Keep || blk.WBytes == 0 {
			continue
		}
		mom := float64(o.Precision.OptimBytes(blk.WBytes))
		if o.ZeROShard {
			mom /= float64(gpus)
		}
		t := unit.TransferTime(unit.Bytes(mom), swapBW, lat)
		if op := lastIn[b]; op != nil {
			op.Duration += t
		}
		if op := lastOut[b]; op != nil {
			op.Duration += t
		}
	}
}

// injectExchange appends the phased block-wise gradient exchange to a
// replica plan: per-block gradient payloads in backward completion order
// merge into phases (comm.PhasedGroups), and each phase becomes one
// Network-stream op right after the stage that produces its last
// gradient — its drain for streamed blocks, its backward pass otherwise
// (the compiler derives that dependency). The simulator then overlaps
// the exchange against the backward work still in flight, and only the
// excess extends the makespan.
func injectExchange(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, gpus int) {
	k := len(s.Blocks)
	backend := comm.Pick(gpus)
	sizes := make([]unit.Bytes, k)
	for i := 0; i < k; i++ {
		sizes[i] = s.Blocks[k-1-i].Cost.WeightBytes // completion order
	}
	groups := comm.PhasedGroups(sizes, cl, gpus, backend)

	// lastStage[b] is the stage after which block b's gradients are
	// available for exchange.
	lastStage := make([]int, k)
	for si, st := range pl.Stages {
		for _, op := range st.Ops {
			if op.Kind == plan.Bwd || op.Kind == plan.SwapOut {
				if si > lastStage[op.Block] {
					lastStage[op.Block] = si
				}
			}
		}
	}
	type insertion struct {
		after int
		op    plan.Op
	}
	var ins []insertion
	for _, g := range groups {
		last := 0
		for _, i := range g.Blocks {
			if i > last {
				last = i
			}
		}
		blk := k - 1 - last
		ins = append(ins, insertion{after: lastStage[blk], op: plan.Op{
			Kind: plan.GradExchange, Block: blk, Duration: g.Time,
		}})
	}
	sort.Slice(ins, func(a, b int) bool { return ins[a].after < ins[b].after })

	out := make([]plan.Stage, 0, len(pl.Stages)+len(ins))
	next := 0
	for si, st := range pl.Stages {
		out = append(out, st)
		for next < len(ins) && ins[next].after == si {
			out = append(out, plan.Stage{Ops: []plan.Op{ins[next].op}})
			next++
		}
	}
	pl.Stages = out
}

// DataParallel implements Evaluator. Conventional data parallelism is
// in-core by definition with no overlap structure to simulate; the
// closed form is exact and the result keeps its "analytic" tag.
func (pe *Planned) DataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	return DataParallel(g, cl, gpus, perReplicaBatch, samples)
}

func (pe *Planned) dataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	return dataParallel(src, cl, gpus, perReplicaBatch, samples)
}

// MegatronHybrid implements Evaluator with the per-layer simulated shard
// (see planned_hybrid.go).
func (pe *Planned) MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return pe.hybrid(cfg, cl, mp, gpus, perReplicaBatch, samples, false, o, nil)
}

// ZeRO implements Evaluator with the per-layer simulated shard; the
// exchange is always phased (reduce-scatter behind backward, parameter
// all-gather under forward).
func (pe *Planned) ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	o.Phased = true
	return pe.hybrid(cfg, cl, mp, gpus, perReplicaBatch, samples, true, o, nil)
}
