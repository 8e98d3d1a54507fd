package dist

import (
	"fmt"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// PlanExport is one configuration's full execution story: the compiled
// plan IR, its simulated timeline, the activation budget the simulation
// ran under, and the verdict. An export is the planned evaluation with
// its simulation kept, so plan, timeline and verdict are one derivation
// (in-core KARMA excepted; see ExportKARMA). The serve layer renders
// Plan as JSON (plan.Encode) and Timeline as a Chrome trace
// (trace.Collect/WriteChrome); nothing here aliases the evaluator's
// pooled scratch, so it may outlive the call arbitrarily.
type PlanExport struct {
	Plan     *plan.Plan
	Compiled *plan.Compiled
	Timeline *sim.Timeline
	Budget   unit.Bytes
	Result   *Result
}

// keep records the simulation an evaluation ran; a nil export (the
// evaluation path) keeps nothing.
func (ex *PlanExport) keep(pl *plan.Plan, c *plan.Compiled, tl *sim.Timeline, budget unit.Bytes) {
	if ex != nil {
		ex.Plan, ex.Compiled, ex.Timeline, ex.Budget = pl, c, tl, budget
	}
}

// finish completes an export from the evaluation that filled it. An
// infeasible verdict has no plan; a failed simulation (which evaluation
// would answer with the analytic fallback) surfaces as the error.
func (ex *PlanExport) finish(r *Result, err error) (*PlanExport, error) {
	if err != nil {
		return nil, err
	}
	if !r.Feasible {
		return nil, fmt.Errorf("dist: no plan for an infeasible configuration: %s", r.Reason)
	}
	ex.Result = r
	return ex, nil
}

// Export evaluates c on the planned backend and keeps the plan behind
// the verdict — the export counterpart of Evaluate. Conventional data
// parallelism is closed-form and has no plan to export.
func (pe *Planned) Export(c Config) (*PlanExport, error) {
	switch c.Family {
	case "karma-dp":
		src, err := c.source()
		if err != nil {
			return nil, err
		}
		return pe.exportKARMA(src, c.Cluster, c.GPUs, c.Batch, c.Samples, c.KARMA)
	case "mp+dp", "zero":
		return pe.ExportHybrid(c.Transformer, c.Cluster, c.MP, c.GPUs, c.Batch, c.Samples, c.Family == "zero", c.Hybrid)
	case "pipeline":
		return pe.ExportPipeline(c.Transformer, c.Cluster, c.Stages, c.GPUs, c.Batch, c.Micro, c.Samples, c.Hybrid)
	}
	return nil, fmt.Errorf("dist: family %q has no plan to export", c.Family)
}

// ExportKARMA evaluates one planner-backed KARMA data-parallel
// configuration and keeps the replica plan it simulated.
//
// Fully in-core configurations are the one exception to "the export is
// the verdict's own derivation": their verdict is the exact closed form,
// which has no schedule, so the export keeps the partition-search plan
// (an in-core profile plans to all-resident blocks) simulated beside it.
// That timeline is longer than IterTime: a few percent on the large
// CNNs, more on small or exchange-bound graphs (see README).
func (pe *Planned) ExportKARMA(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*PlanExport, error) {
	src, err := graphSrc(g)
	if err != nil {
		return nil, err
	}
	return pe.exportKARMA(src, cl, gpus, perReplicaBatch, samples, o)
}

// exportKARMA is ExportKARMA on a model source.
func (pe *Planned) exportKARMA(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*PlanExport, error) {
	ex := new(PlanExport)
	return ex.finish(pe.karma(src, cl, gpus, perReplicaBatch, samples, o, ex))
}

// ExportHybrid evaluates one per-layer simulated MP+DP (or, with zero,
// ZeRO) configuration and keeps the shard plan it simulated.
func (pe *Planned) ExportHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, zero bool, o HybridOptions) (*PlanExport, error) {
	if zero {
		o.Phased = true // ZeRO's exchange is phased by construction
	}
	ex := new(PlanExport)
	return ex.finish(pe.hybrid(cfg, cl, mp, gpus, perReplicaBatch, samples, zero, o, ex))
}

// ExportPipeline evaluates one pipeline configuration and keeps the
// bottleneck-stage plan it simulated (the other stages contribute
// closed-form terms only and have no per-op schedule to export).
func (pe *Planned) ExportPipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*PlanExport, error) {
	ex := new(PlanExport)
	return ex.finish(pe.pipeline(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o, ex))
}
