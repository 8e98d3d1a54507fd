package dist

import (
	"fmt"
	"sync"

	"karma/internal/comm"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// This file is the planner-backed path for the in-core hybrid baselines
// (Megatron MP+DP, ZeRO): instead of the closed forms of hybrid.go, the
// 1/mp shard graph is profiled per layer, its in-core (or checkpointed)
// schedule lowered to the plan IR, the Megatron collectives and the
// data-parallel exchange injected on the collective streams, and the
// iteration costed by the event simulator — so the blocking per-layer
// all-reduces, checkpoint replays and the phased exchange contend and
// overlap exactly as scheduled (the fidelity tier above hybrid.go's
// phase algebra).

// hybrid evaluates one MP+DP (or ZeRO) configuration through the shared
// setup (whose shard profiles and schedules come from the
// process-wide memo caches) and the per-layer simulation; a simulator
// failure on a configuration the shared precheck deems feasible falls
// back to the analytic closed form (the result keeps its "analytic"
// tag). A non-nil ex keeps the simulated shard plan (see ExportHybrid)
// and simulates on fresh scratch, since a kept plan, compilation or
// timeline must never alias the pooled buffers.
func (pe *Planned) hybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, zero bool, o HybridOptions, ex *PlanExport) (*Result, error) {
	sp, s, bad, err := hybridSetup(cfg, cl, mp, gpus, perReplicaBatch, samples, zero, o)
	if err != nil {
		return nil, err
	}
	if bad != nil {
		bad.Backend = pe.Name()
		return bad, nil
	}
	replicas := gpus / mp
	r := func(iter unit.Seconds) *Result {
		res := finalize(iter, gpus, replicas*perReplicaBatch, samples)
		res.Ckpt = o.Checkpoint
		return res
	}
	var sc *hybridScratch
	if ex != nil {
		sc = new(hybridScratch)
	} else {
		sc = hybridScratchPool.Get().(*hybridScratch)
		defer hybridScratchPool.Put(sc)
	}
	iter, bd, err := pe.hybridIter(cfg, sp, s, cl, mp, replicas, zero, o, sc, ex)
	if err != nil {
		if ex != nil {
			return nil, err // an export has no plan to keep
		}
		c := megatronCost(cfg, sp, s, cl, mp, replicas, zero, o)
		res := r(c.iter()) // Backend stays "analytic": explicit fallback
		res.Breakdown = c.breakdown()
		return res, nil
	}
	res := r(iter)
	res.Backend = pe.Name()
	res.Breakdown = bd
	return res, nil
}

// hybridIter lowers the shard schedule to the plan IR, injects the MP
// collectives, the data-parallel exchange and the closing update, and
// simulates one iteration on sc, keeping the simulation in ex when it is
// non-nil. The breakdown derives from the simulated timeline; the update
// is a scheduled op here, so no supplement is needed and the components
// sum to the makespan by construction.
func (pe *Planned) hybridIter(cfg model.TransformerConfig, sp profiled, s *karma.Schedule, cl hw.Cluster, mp, replicas int, zero bool, o HybridOptions, sc *hybridScratch, ex *PlanExport) (unit.Seconds, *Breakdown, error) {
	if pe.failSim {
		return 0, nil, errForcedFallback
	}
	var pl *plan.Plan
	var err error
	pe.timed("plan_build", func() {
		if pl, err = karma.BuildPlan(s); err != nil {
			return
		}
		// Exchange first, collectives second: the walk then queues each
		// backward's blocking all-reduce ahead of the exchange phase it
		// unblocks, the priority a real implementation gives the
		// collective the next layer's compute is stalled on.
		injectHybridExchange(pl, s, cl, replicas, mp*replicas, zero, o, &sc.ex)
		injectMPCollectives(pl, s, sp, cfg, cl, mp, replicas, &sc.mp)
		appendHybridUpdate(pl, s, cl, zero, replicas)
	})
	if err != nil {
		return 0, nil, err
	}
	// Compile and run on the scratch's long-lived compiler and simulator
	// (exactly what pl.Simulate does on fresh ones, error strings
	// included) so the per-configuration evaluation stays allocation-lean.
	var c *plan.Compiled
	var tl *sim.Timeline
	pe.timed("simulate", func() {
		c, err = sc.comp.Compile(pl)
		if err != nil {
			return
		}
		//karma:plan-ok ops come from Compile on this same plan; the pooled Runner just skips Simulate's per-call allocations
		if tl, err = sc.run.Run(c.Ops, s.Budget); err != nil {
			err = fmt.Errorf("plan %s: %w", pl.Name, err)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	ex.keep(pl, c, tl, s.Budget)
	return tl.Makespan, timelineBreakdown(c, tl), nil
}

// hybridScratch is the reusable evaluation state of one planned-hybrid
// simulation: the stage arenas the injectors rebuild into plus the
// compiler and simulator. Pooled because the sweep engine evaluates
// configurations from several workers; reuse never changes results, it
// only skips re-growing the buffers.
type hybridScratch struct {
	comp plan.Compiler
	run  sim.Runner
	ex   stageArena
	mp   stageArena
}

var hybridScratchPool = sync.Pool{New: func() any { return new(hybridScratch) }}

// stageArena backs one injector's rebuilt stage list with two flat
// slices, so a steady-state rebuild allocates nothing once grown. Ops of
// kept stages alias the input plan; single-op stages point into the ops
// arena (growth may leave earlier stages on an older backing array,
// which is fine — they are never mutated afterwards).
type stageArena struct {
	stages []plan.Stage
	ops    []plan.Op
}

func (a *stageArena) reset() {
	a.stages = a.stages[:0]
	a.ops = a.ops[:0]
}

// keep copies an existing stage through unchanged.
func (a *stageArena) keep(st plan.Stage) {
	a.stages = append(a.stages, st)
}

// one appends a new single-op stage.
func (a *stageArena) one(op plan.Op) {
	a.ops = append(a.ops, op)
	n := len(a.ops)
	a.stages = append(a.stages, plan.Stage{Ops: a.ops[n-1 : n : n]})
}

// injectMPCollectives inserts the blocking Megatron all-reduces: one
// after every forward pass (and interior checkpoint-run replay, whose
// boundary must be re-reduced) of a block ending in a row-parallel
// boundary, stalling the next block's forward; and one per such block in
// backward, where the input-gradient collective launches after the
// dgrad half of the backward pass and overlaps the wgrad half — the
// standard Megatron-LM overlap — before the previous block's backward
// may start. MP groups packed inside one node collect over NVLink
// (plan.MPAllReduceLocal) and leave the network stream to the exchange;
// groups spanning nodes contend with it (plan.MPAllReduce).
func injectMPCollectives(pl *plan.Plan, s *karma.Schedule, sp profiled, cfg model.TransformerConfig, cl hw.Cluster, mp, replicas int, arena *stageArena) {
	if mp <= 1 {
		return
	}
	backend := comm.Pick(mp * replicas)
	perAR := comm.HierarchicalAllReduce(mpARPayload(cfg, sp.p), cl, mp, backend)
	if perAR <= 0 {
		return
	}
	kind := plan.MPAllReduce
	if mp <= cl.Node.Devices {
		kind = plan.MPAllReduceLocal
	}
	ar := func(block, n int) {
		arena.one(plan.Op{
			Kind: kind, Block: block,
			Duration: unit.Seconds(float64(n) * float64(perAR)),
		})
	}
	fwdAR, bwdAR := sp.fwdAR, sp.bwdAR
	arena.reset()
	for _, st := range pl.Stages {
		if len(st.Ops) == 1 && st.Ops[0].Kind == plan.Bwd && bwdAR[st.Ops[0].Block] > 0 {
			// dgrad → input-gradient all-reduce ∥ wgrad: the collective
			// launches once the data-gradient half produced its partial
			// sums and overlaps the weight-gradient half; memory frees
			// when the whole backward pass retires.
			op := st.Ops[0]
			dgrad, wgrad := op, op
			dgrad.Duration = op.Duration / 2
			dgrad.Alloc, dgrad.Free = op.Alloc, 0
			wgrad.Duration = op.Duration - dgrad.Duration
			wgrad.Alloc, wgrad.Free = 0, op.Free
			arena.one(dgrad)
			ar(op.Block, bwdAR[op.Block])
			arena.one(wgrad)
			continue
		}
		arena.keep(st)
		for _, op := range st.Ops {
			n := 0
			switch op.Kind {
			case plan.Fwd:
				n = fwdAR[op.Block]
			case plan.Bwd:
				// A backward sharing its stage with other ops (none of the
				// in-core/checkpointed schedules emit this today) still
				// gets its blocking collective — serially, without the
				// wgrad overlap of the split above.
				n = bwdAR[op.Block]
			case plan.Recompute:
				if s.RunContinues(op.Block) {
					n = fwdAR[op.Block]
				}
			}
			if n > 0 {
				ar(op.Block, n)
			}
		}
	}
	pl.Stages = arena.stages
}

// firstWeightedBlock returns the lowest block index carrying weights —
// the block whose backward completes last among weighted blocks, and
// therefore the one whose exchange phase drains the network last.
func firstWeightedBlock(s *karma.Schedule) int {
	for i, b := range s.Blocks {
		if b.Cost.WeightBytes > 0 {
			return i
		}
	}
	return 0
}

// injectHybridExchange adds the data-parallel gradient exchange across
// the shard's replicas. Bulk mode appends one ring collective after the
// whole backward pass; phased mode groups per-block payloads in backward
// completion order (comm.RingPhasedGroups) and launches each phase right
// after the backward that completes it. Under ZeRO each phase is the
// reduce-scatter half, and the matching parameter all-gather half
// prefetches ahead of the forward pass that consumes it (steady state),
// filling the network gaps between the blocking forward collectives.
func injectHybridExchange(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, replicas, gpus int, zero bool, o HybridOptions, arena *stageArena) {
	if replicas <= 1 {
		return
	}
	backend := comm.Pick(gpus)
	ring := shardEngine(cl)
	k := len(s.Blocks)

	if !zero && !o.Phased {
		var total unit.Bytes
		for _, b := range s.Blocks {
			total += b.Cost.WeightBytes
		}
		if t := comm.RingAllReduceOver(ring, total, replicas, backend); t > 0 {
			// Attached to the first weighted block so the update op's
			// GradExchange dependency (appendHybridUpdate) finds it.
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: plan.GradExchange, Block: firstWeightedBlock(s), Duration: t,
			}}})
		}
		return
	}

	// A group is one collective — merging amortizes its latency — but its
	// traffic drains per block as gradients are produced, so each member
	// block carries its byte-share of the group's time. Spreading the
	// phases this way lets the blocking MP all-reduces slot between them
	// on the network FIFO instead of stalling behind a monolithic phase.
	spread := func(sizes []unit.Bytes, half bool) []unit.Seconds {
		out := make([]unit.Seconds, len(sizes))
		for _, g := range comm.RingPhasedGroupsOver(ring, sizes, replicas, backend) {
			t := g.Time
			if half {
				t /= 2 // reduce-scatter or all-gather: half the ring steps
			}
			for _, i := range g.Blocks {
				if g.Bytes > 0 && sizes[i] > 0 {
					out[i] += unit.Seconds(float64(t) * float64(sizes[i]) / float64(g.Bytes))
				}
			}
		}
		return out
	}
	sizes := make([]unit.Bytes, k)
	for i := 0; i < k; i++ {
		sizes[i] = s.Blocks[k-1-i].Cost.WeightBytes // completion order
	}
	exAfter := make([]unit.Seconds, k)
	for i, t := range spread(sizes, zero) {
		exAfter[k-1-i] = t
	}
	agBefore := make([]unit.Seconds, k)
	if zero {
		fwdSizes := make([]unit.Bytes, k)
		for i := 0; i < k; i++ {
			fwdSizes[i] = s.Blocks[i].Cost.WeightBytes
		}
		agBefore = spread(fwdSizes, true)
	}

	arena.reset()
	for _, st := range pl.Stages {
		for _, op := range st.Ops {
			if op.Kind == plan.Fwd && agBefore[op.Block] > 0 {
				arena.one(plan.Op{
					Kind: plan.ParamGather, Block: op.Block, Duration: agBefore[op.Block],
				})
			}
		}
		arena.keep(st)
		for _, op := range st.Ops {
			if op.Kind == plan.Bwd && exAfter[op.Block] > 0 {
				arena.one(plan.Op{
					Kind: plan.GradExchange, Block: op.Block, Duration: exAfter[op.Block],
				})
			}
		}
	}
	pl.Stages = arena.stages
}

// appendHybridUpdate closes the iteration with the device-side optimizer
// step: it is attached to the first weighted block — whose exchange
// phase drains last — so the compiler's GradExchange dependency makes it
// wait for the full exchange before serializing on the compute stream.
// Under ZeRO every replica updates only its 1/replicas optimizer
// partition.
func appendHybridUpdate(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, zero bool, replicas int) {
	var updF float64
	for _, b := range s.Blocks {
		updF += float64(b.Cost.UpdateFLOPs)
	}
	if zero {
		updF /= float64(replicas)
	}
	pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
		Kind: plan.UpdateGPU, Block: firstWeightedBlock(s),
		Duration: unit.ComputeTime(unit.FLOPs(updF), cl.Node.Device.SustainedFLOPS()),
	}}})
}
