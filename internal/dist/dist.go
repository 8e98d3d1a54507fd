// Package dist models KARMA at cluster scale (paper §III-G, Fig. 3): the
// five-stage out-of-core data-parallel pipeline (swap-in, compute,
// swap-out, phased gradient exchange, host-side weight update), the
// Megatron-LM model+data-parallel hybrid it is compared against (Fig. 8,
// Table IV), ZeRO-style sharded data parallelism, GPipe-style pipeline
// (inter-layer) parallelism, and conventional in-core data parallelism
// (Table V). Every family evaluates at fp32 or mixed precision
// (tensor.Precision): fp16 tensors halve the swap, collective and
// activation bytes while the optimizer's fp32 master state stays
// resident, sharded, or host-side depending on the family.
//
// Two Evaluator backends cost each configuration:
//
//   - Analytic (the package-level functions): closed-form models layered
//     on the profiled per-block quantities of internal/profiler and the
//     collective costs of internal/comm. The out-of-core KARMA replica
//     is approximated by a heavy/cheap activation split with a streamed
//     fraction; the MP hybrids by a forward/backward phase algebra over
//     the 1/mp shard profile (megatronCost). Use it for dense sweeps —
//     a full Fig. 8 grid costs milliseconds.
//
//   - Planned: everything runs through the planner/sim pipeline. A KARMA
//     replica runs the real internal/karma two-tier partition search
//     (Opt-1/Opt-2, in the §III-G weight-streaming regime when weights
//     cannot stay resident); an MP hybrid shard (MegatronHybrid, ZeRO)
//     profiles model.TransformerShard per layer, takes its in-core or
//     activation-checkpointed schedule (karma.InCore / karma.Checkpoint)
//     and gets the blocking Megatron collectives, the phased or bulk
//     data-parallel exchange, and ZeRO's reduce-scatter/all-gather split
//     injected as collective-stream ops. Either way internal/sim plays
//     the schedule out, so swap, recompute, checkpoint-replay and
//     collective stalls interact per block exactly as in Fig. 3. Use it
//     when fidelity matters (calibration, headline ratios); profiles and
//     schedules are cached so sweeps stay tractable.
//
// The two backends diverge only in timing fidelity, never on "does it
// fit": they share one feasibility path (the KARMA precheck, and
// hybridSetup for the MP hybrids), so verdicts and Reason strings agree
// by construction, and they coincide exactly for fully in-core KARMA
// replicas. Analytic-vs-Planned iteration times are held to a bounded
// band by the property tests in hybrid_test.go. The models return a
// Result rather than an error for capacity problems (undersized
// clusters, models that cannot be sharded small enough), so experiment
// sweeps can render infeasible cells; errors are reserved for invalid
// arguments.
package dist

import (
	"fmt"
	"math"

	"karma/internal/comm"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/profiler"
	"karma/internal/tensor"
	"karma/internal/unit"
)

// headroomFrac is the fraction of usable device memory reserved for
// transient working tensors (mirrors the planner's Options.Headroom).
const headroomFrac = 0.03

// Result is the outcome of evaluating one distributed configuration.
// The JSON field names are the karma-serve wire format; experiment
// panels embed Results, so the tags keep every panel marshalable as-is.
type Result struct {
	// Feasible reports whether the configuration fits the cluster; when
	// false, Reason explains why and the timing fields are zero.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`

	// EpochTime is the time to process one epoch of the sample set.
	EpochTime unit.Seconds `json:"epoch_time_s"`
	// IterTime is the time of one global mini-batch iteration.
	IterTime unit.Seconds `json:"iter_time_s"`
	// IterPerSec is the iteration rate (Table IV's perf column).
	IterPerSec float64 `json:"iter_per_sec"`
	// CostPerf is the cost/performance proxy of Table V: GPU-seconds
	// spent per training sample ($/P up to a constant price factor).
	CostPerf float64 `json:"cost_perf"`
	// GPUs is the device count the configuration uses.
	GPUs int `json:"gpus"`
	// GlobalBatch is the samples processed per iteration across the run.
	GlobalBatch int `json:"global_batch"`
	// Backend names the cost model that produced the numbers. Results are
	// tagged "analytic" at construction (the package-level functions ARE
	// the analytic backend); the planner-backed evaluator overwrites the
	// tag with "planned" on the paths it actually simulates, so a
	// "analytic" tag from Planned marks an explicit fallback.
	Backend string `json:"backend"`
	// Ckpt records whether the configuration ran with activation
	// checkpointing (the in-core hybrids under HybridOptions.Checkpoint).
	Ckpt bool `json:"ckpt"`
	// Breakdown attributes IterTime across the pipeline's phases (nil for
	// infeasible results). Its critical-path components sum to IterTime in
	// both backends — every verdict is self-explaining.
	Breakdown *Breakdown `json:"breakdown,omitempty"`
}

// KARMAOptions selects KARMA-DP variants.
type KARMAOptions struct {
	// UpdateOnDevice forces the weight update of swapped blocks back onto
	// the GPU (ablation A4). The default updates swapped blocks on the
	// host during swap-out (Fig. 3 stage 5), which avoids the momentum
	// round-trip over the link.
	UpdateOnDevice bool
	// ZeROShard composes KARMA with ZeRO-style sharding: gradient and
	// optimizer state partition across the replicas, shrinking the
	// out-of-core footprint each GPU must stream (Fig. 8 right panel).
	ZeROShard bool
	// Precision selects the training regime (fp32 default, or mixed
	// fp16-with-fp32-master). Mixed precision halves the weight,
	// gradient and activation bytes the replica streams and exchanges;
	// the fp32 master copy lives with the host-side update (far memory)
	// in every KARMA regime, so it never costs device capacity. Compute
	// rates are deliberately held constant across regimes (see
	// tensor.Precision).
	Precision tensor.Precision
}

// infeasible returns a non-viable Result carrying the configuration's
// identity so tables can still render the row. Like finalize it tags the
// result "analytic" at construction; evaluator backends re-tag.
func infeasible(gpus, globalBatch int, format string, args ...any) *Result {
	return &Result{
		Feasible:    false,
		Reason:      fmt.Sprintf(format, args...),
		GPUs:        gpus,
		GlobalBatch: globalBatch,
		Backend:     "analytic",
	}
}

// finalize derives the rate and epoch quantities from one iteration
// time, tagged with the analytic backend the package-level functions
// implement (the planned evaluator re-tags what it simulates).
func finalize(iter unit.Seconds, gpus, globalBatch, samples int) *Result {
	iters := samples / globalBatch // ceil without overflowing near MaxInt
	if samples%globalBatch != 0 {
		iters++
	}
	return &Result{
		Feasible:    true,
		EpochTime:   unit.Seconds(float64(iters) * float64(iter)),
		IterTime:    iter,
		IterPerSec:  1 / float64(iter),
		CostPerf:    float64(gpus) * float64(iter) / float64(globalBatch),
		GPUs:        gpus,
		GlobalBatch: globalBatch,
		Backend:     "analytic",
	}
}

// maxBatch caps the per-replica batch, whose multiples overflow the
// profiler's byte sizes; the pipeline capacity sweep stops at 8<<12.
const maxBatch = 1 << 20

// validateRun checks the argument combinations shared by all models.
func validateRun(cl hw.Cluster, gpus, batch, samples int) error {
	if gpus <= 0 {
		return fmt.Errorf("dist: gpus must be positive, got %d", gpus)
	}
	if batch <= 0 {
		return fmt.Errorf("dist: per-replica batch must be positive, got %d", batch)
	}
	if batch > maxBatch {
		return fmt.Errorf("dist: per-replica batch %d exceeds the cap %d", batch, maxBatch)
	}
	if batch > math.MaxInt/gpus {
		return fmt.Errorf("dist: global batch %d x %d overflows", gpus, batch)
	}
	if samples <= 0 {
		return fmt.Errorf("dist: sample count must be positive, got %d", samples)
	}
	if cl.Nodes <= 0 || cl.Node.Devices <= 0 {
		return fmt.Errorf("dist: cluster %s has no devices", cl.Name)
	}
	if cl.Nodes > math.MaxInt/cl.Node.Devices {
		return fmt.Errorf("dist: cluster %s device count %d x %d overflows", cl.Name, cl.Nodes, cl.Node.Devices)
	}
	return cl.Node.Device.Validate()
}

// budget returns the per-device memory available after headroom.
func budget(cl hw.Cluster) unit.Bytes {
	usable := cl.Node.Device.UsableMem()
	return usable - unit.Bytes(float64(usable)*headroomFrac)
}

// maxBlockBytes returns the largest single-block working set of the
// profile — two weight copies, activations, and pinned inputs. A block
// whose working set exceeds the device budget cannot run under any
// streaming policy; both backends share this feasibility verdict.
func maxBlockBytes(p *profiler.Profile) unit.Bytes {
	var maxBlock unit.Bytes
	for _, b := range p.Blocks {
		if work := 2*b.WeightBytes + b.ActBytes + b.PinnedInBytes; work > maxBlock {
			maxBlock = work
		}
	}
	return maxBlock
}

// replicaCost is the per-replica iteration cost of KARMA's out-of-core
// pipeline, before the gradient exchange is added.
type replicaCost struct {
	// fwd and bwd are the device compute phases; recompute is the Opt-2
	// style redundant forward work for dropped cheap activations.
	fwd, bwd, recompute unit.Seconds
	// swapStall is link time not hidden under compute.
	swapStall unit.Seconds
	// serialUpdate is weight-update work on the iteration's critical path.
	serialUpdate unit.Seconds
	// updateStall is host-update time not hidden under the next forward.
	updateStall unit.Seconds
	// stream is the fraction of the working set crossing the link each
	// iteration (0 when the replica runs in-core).
	stream float64
	// h2d, d2h and hostUpdate are informational busy times (Breakdown's
	// per-stream view); they do not enter iter().
	h2d, d2h, hostUpdate unit.Seconds
}

func (rc replicaCost) iter() unit.Seconds {
	return rc.fwd + rc.bwd + rc.recompute + rc.swapStall + rc.serialUpdate + rc.updateStall
}

// breakdown attributes the replica's critical path plus the exchange
// exposure; components sum to iter (= rc.iter() + exStall) exactly.
func (rc replicaCost) breakdown(exTotal, exStall, iter unit.Seconds) *Breakdown {
	b := &Breakdown{
		Compute:       rc.fwd + rc.bwd,
		Recompute:     rc.recompute,
		SwapStall:     rc.swapStall,
		ExchangeStall: exStall,
		Update:        rc.serialUpdate + rc.updateStall,
		Busy: StreamBusy{
			Compute: rc.fwd + rc.bwd + rc.recompute + rc.serialUpdate,
			H2D:     rc.h2d,
			D2H:     rc.d2h,
			Host:    rc.hostUpdate,
			Network: exTotal,
		},
	}
	return b.withOccupancy(iter)
}

// karmaReplica evaluates one out-of-core replica at the profile's batch.
// gpus is the data-parallel width (it sizes ZeRO's shards). A nil result
// means the configuration cannot run; reason explains it.
func karmaReplica(p *profiler.Profile, cl hw.Cluster, gpus int, o KARMAOptions) (*replicaCost, string) {
	m := budget(cl)
	weights := p.TotalWeightBytes
	grads := weights
	if o.ZeROShard {
		// Gradient and optimizer state shard across the replicas; each
		// GPU holds only its 1/gpus partition between exchanges.
		grads = unit.Bytes(math.Ceil(float64(weights) / float64(gpus)))
	}

	var fwd, bwd, cheapFwd unit.Seconds
	var heavyActs unit.Bytes
	var updateFLOPs unit.FLOPs
	for _, b := range p.Blocks {
		fwd += b.FwdTime
		bwd += b.BwdTime
		cheapFwd += b.CheapFwdTime
		heavyActs += b.HeavyActBytes
		updateFLOPs += b.UpdateFLOPs
	}
	if maxBlock := maxBlockBytes(p); maxBlock > m {
		return nil, fmt.Sprintf("largest block needs %v of %v device memory", maxBlock, m)
	}

	rc := &replicaCost{fwd: fwd, bwd: bwd}
	devRate := cl.Node.Device.SustainedFLOPS()
	updDev := unit.ComputeTime(updateFLOPs, devRate)
	if o.ZeROShard {
		// Every replica updates only its 1/gpus partition (the all-gather
		// of fresh parameters is folded into the exchange).
		updDev = unit.Seconds(float64(updDev) / float64(gpus))
	}

	if weights+grads+p.TotalActBytes <= m {
		// Fully in-core: KARMA degenerates to conventional data
		// parallelism with a device-side update.
		rc.serialUpdate = updDev
		return rc, ""
	}

	// Drop cheap activations (normalization, pooling, element-wise) and
	// recompute them in backward — the Opt-2 interleave at block scale.
	rc.recompute = cheapFwd
	footprint := weights + grads + heavyActs
	if footprint <= m {
		rc.serialUpdate = updDev
		return rc, ""
	}

	// Block streaming: the nonresident share of weights and heavy
	// activations crosses the link every iteration. Weights enter twice
	// (forward and backward sweeps), activations leave after forward and
	// return for backward, gradients drain to far memory.
	f := 1 - float64(m)/float64(footprint)
	rc.stream = f
	in := f * float64(2*weights+heavyActs)
	out := f * float64(heavyActs+grads)

	hostFrac := f // share of the update handled off-device
	if o.ZeROShard {
		hostFrac /= float64(gpus)
	}
	if o.UpdateOnDevice {
		// Forcing streamed blocks to update on the GPU round-trips their
		// momentum buffers and serializes the update kernel (A4). The
		// buffers are fp32 in both regimes, so under mixed precision they
		// cost twice the fp16 weight bytes. ZeRO partitions the momentum
		// like the rest of the optimizer state.
		momentum := f * float64(o.Precision.OptimBytes(weights))
		if o.ZeROShard {
			momentum /= float64(gpus)
		}
		in += momentum
		out += momentum
		rc.serialUpdate = updDev
		hostFrac = 0
	} else {
		// Streamed blocks update on the host during swap-out; resident
		// blocks update on the device.
		rc.serialUpdate = unit.Seconds((1 - f) * float64(updDev))
	}
	hostFLOPs := unit.FLOPs(hostFrac * float64(updateFLOPs))
	hostT := unit.ComputeTime(hostFLOPs, cl.Node.Host.SustainedFLOPS())
	rc.hostUpdate = hostT
	if hostT > fwd {
		// CPU update overlaps the next iteration's forward pass.
		rc.updateStall = hostT - fwd
	}

	swapBW := hw.SwapThroughput(cl.Node)
	lat := unit.Seconds(float64(len(p.Blocks)) * float64(cl.Node.Link.Latency))
	rc.h2d = unit.TransferTime(unit.Bytes(in), swapBW, lat)
	rc.d2h = unit.TransferTime(unit.Bytes(out), swapBW, lat)
	dir := math.Max(in, out)
	link := unit.TransferTime(unit.Bytes(dir), swapBW, lat)
	if compute := rc.fwd + rc.bwd + rc.recompute; link > compute {
		rc.swapStall = link - compute
	}
	return rc, ""
}

// gradExchange returns the per-iteration cost of the phased block-wise
// gradient exchange: a hierarchical all-reduce of the full gradient
// payload, overlapped with the backward pass that produces it. With
// ZeROShard the exchange is a reduce-scatter plus the all-gather of
// updated parameters — the same ring volume in this cost model.
func gradExchange(grads unit.Bytes, cl hw.Cluster, gpus int, window unit.Seconds) unit.Seconds {
	_, stall := gradExchangeTimes(grads, cl, gpus, window)
	return stall
}

// gradExchangeTimes returns both the full collective time (the network
// busy view) and the stall beyond the overlap window (the critical-path
// view) — same arithmetic as gradExchange.
func gradExchangeTimes(grads unit.Bytes, cl hw.Cluster, gpus int, window unit.Seconds) (total, stall unit.Seconds) {
	if gpus <= 1 {
		return 0, 0
	}
	b := comm.Pick(gpus)
	t := comm.HierarchicalAllReduce(grads, cl, gpus, b)
	if t <= window {
		return t, 0
	}
	return t, t - window
}

// KARMADataParallel evaluates KARMA's pure data-parallel training of g:
// every GPU holds the whole model out-of-core at the given per-replica
// batch, blocks swap with their weights, gradients exchange per block in
// phases, and the weight update runs host-side (Fig. 3). The global
// mini-batch is gpus x perReplicaBatch.
func KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	src, err := graphSrc(g)
	if err != nil {
		return nil, err
	}
	return karmaDataParallel(src, cl, gpus, perReplicaBatch, samples, o)
}

// karmaDataParallel is KARMADataParallel on a model source.
func karmaDataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	p, bad, err := replicaSetup(src, cl, gpus, perReplicaBatch, samples, o.Precision.DType())
	if err != nil || bad != nil {
		return bad, err
	}
	return karmaClosedForm(p, cl, gpus, perReplicaBatch, samples, o), nil
}

// replicaSetup validates the argument set of the data-parallel families
// (KARMA and conventional, both backends) and returns the per-replica
// profile from the shared cache, or a non-nil Result when the cluster
// is too small.
func replicaSetup(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int, dt tensor.DType) (*profiler.Profile, *Result, error) {
	if err := validateRun(cl, gpus, perReplicaBatch, samples); err != nil {
		return nil, nil, err
	}
	if total := cl.TotalDevices(); gpus > total {
		return nil, infeasible(gpus, gpus*perReplicaBatch, "cluster %s has %d devices, need %d", cl.Name, total, gpus), nil
	}
	sp, err := cachedProfile(profileKey{src: src, node: cl.Node, batch: perReplicaBatch, dt: dt})
	return sp.p, nil, err
}

// karmaClosedForm is the analytic KARMA data-parallel verdict on the
// replica profile.
func karmaClosedForm(p *profiler.Profile, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) *Result {
	global := gpus * perReplicaBatch
	rc, reason := karmaReplica(p, cl, gpus, o)
	if rc == nil {
		return infeasible(gpus, global, "%s", reason)
	}
	exTotal, exStall := gradExchangeTimes(p.TotalWeightBytes, cl, gpus, rc.bwd)
	iter := rc.iter() + exStall
	r := finalize(iter, gpus, global, samples)
	r.Breakdown = rc.breakdown(exTotal, exStall, iter)
	return r
}

// DataParallel evaluates conventional in-core data parallelism: gpus
// replicas at the given batch, gradients all-reduced hierarchically and
// overlapped with backward, weights updated on the device. Models whose
// working set exceeds device memory are infeasible — the regime KARMA
// (and the MP hybrid) exist for.
func DataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	src, err := graphSrc(g)
	if err != nil {
		return nil, err
	}
	return dataParallel(src, cl, gpus, perReplicaBatch, samples)
}

// dataParallel is DataParallel on a model source.
func dataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	p, bad, err := replicaSetup(src, cl, gpus, perReplicaBatch, samples, tensor.FP32)
	if err != nil || bad != nil {
		return bad, err
	}
	global := gpus * perReplicaBatch
	if need, have := p.InCoreBytes(), budget(cl); need > have {
		return infeasible(gpus, global,
			"batch %d needs %v of %v device memory; use KARMADataParallel", perReplicaBatch, need, have), nil
	}
	fwd, bwd, updateFLOPs := p.Totals()
	upd := unit.ComputeTime(updateFLOPs, cl.Node.Device.SustainedFLOPS())
	exTotal, exStall := gradExchangeTimes(p.TotalWeightBytes, cl, gpus, bwd)
	iter := fwd + bwd + upd + exStall
	r := finalize(iter, gpus, global, samples)
	r.Breakdown = (&Breakdown{
		Compute:       fwd + bwd,
		ExchangeStall: exStall,
		Update:        upd,
		Busy:          StreamBusy{Compute: fwd + bwd + upd, Network: exTotal},
	}).withOccupancy(iter)
	return r, nil
}
