package dist

import (
	"fmt"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
)

// Evaluator evaluates distributed training configurations. Two backends
// implement it:
//
//   - Analytic: the closed-form cost models of this package, cheap enough
//     for dense sweeps (Fig. 8 grids, Table V ladders).
//   - Planned: the planner-backed path — each KARMA replica runs the real
//     partition search (internal/karma, Opt-1/Opt-2) and each in-core
//     hybrid shard profiles per layer (model.TransformerShard) and builds
//     an explicit forward/backward plan; either way the schedule is
//     simulated by internal/sim with the collectives of internal/comm on
//     the network stream, trading sweep speed for fidelity.
//
// Both backends agree on feasibility verdicts and coincide exactly for
// fully in-core KARMA replicas; they differ in how out-of-core stalls
// and per-layer collective overlap are costed.
//
// Evaluate is the one place that maps a Config's family to its method;
// the planned backend's exports run the same evaluation and keep the
// plan it simulated (see PlanExport).
type Evaluator interface {
	// Name identifies the backend ("analytic", "planned").
	Name() string
	// KARMADataParallel evaluates KARMA's out-of-core data parallelism
	// (see the package-level KARMADataParallel).
	KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error)
	// DataParallel evaluates conventional in-core data parallelism.
	DataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error)
	// MegatronHybrid evaluates the Megatron-LM MP+DP hybrid.
	MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error)
	// ZeRO evaluates the ZeRO-sharded hybrid.
	ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error)
	// Pipeline evaluates the GPipe-style pipeline-parallel baseline:
	// `stages` inter-layer stages per replica, gpus/stages data-parallel
	// replicas, `micro` micro-batches filling and draining the pipeline
	// per iteration.
	Pipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*Result, error)

	// karmaDataParallel and dataParallel are KARMADataParallel and
	// DataParallel on a model source: Evaluate reaches a Config without
	// a Graph through them, so its Transformer is profiled by value.
	karmaDataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error)
	dataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error)
}

// Analytic is the closed-form backend: every method delegates to the
// package-level cost model of the same name (which tags results
// "analytic" at construction).
type Analytic struct{}

// Name implements Evaluator.
func (Analytic) Name() string { return "analytic" }

// KARMADataParallel implements Evaluator.
func (Analytic) KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	return KARMADataParallel(g, cl, gpus, perReplicaBatch, samples, o)
}

// DataParallel implements Evaluator.
func (Analytic) DataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	return DataParallel(g, cl, gpus, perReplicaBatch, samples)
}

// MegatronHybrid implements Evaluator.
func (Analytic) MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return MegatronHybrid(cfg, cl, mp, gpus, perReplicaBatch, samples, o)
}

// ZeRO implements Evaluator.
func (Analytic) ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return ZeRO(cfg, cl, mp, gpus, perReplicaBatch, samples, o)
}

// Pipeline implements Evaluator.
func (Analytic) Pipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*Result, error) {
	return Pipeline(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
}

func (Analytic) karmaDataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	return karmaDataParallel(src, cl, gpus, perReplicaBatch, samples, o)
}

func (Analytic) dataParallel(src modelSrc, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	return dataParallel(src, cl, gpus, perReplicaBatch, samples)
}

// Families lists the parallelism families a Config selects, by their
// karma-serve wire names.
func Families() []string { return []string{"karma-dp", "dp", "mp+dp", "zero", "pipeline"} }

// Config is one distributed-training configuration: a family (one of
// Families) plus exactly the arguments of that family's Evaluator
// method. Fields the family does not take are ignored.
type Config struct {
	Family string
	// Graph is the karma-dp and dp model; when nil they profile
	// Transformer by value, building no graph a cache keeps. Transformer
	// is the model of the other families.
	Graph                *graph.Graph
	Transformer          model.TransformerConfig
	Cluster              hw.Cluster
	GPUs, Batch, Samples int // Batch is per replica
	MP                   int // mp+dp, zero
	Stages, Micro        int // pipeline
	KARMA                KARMAOptions
	Hybrid               HybridOptions
}

// source returns the data-parallel families' model: Graph, or a valid
// Transformer's full model.
func (c Config) source() (modelSrc, error) {
	if c.Graph != nil {
		return modelSrc{g: c.Graph}, nil
	}
	if err := validateTransformer(c.Transformer); err != nil {
		return modelSrc{}, err
	}
	return modelSrc{cfg: c.Transformer}, nil
}

// Evaluate evaluates c with ev through the family's Evaluator method.
func Evaluate(ev Evaluator, c Config) (*Result, error) {
	switch c.Family {
	case "karma-dp":
		src, err := c.source()
		if err != nil {
			return nil, err
		}
		return ev.karmaDataParallel(src, c.Cluster, c.GPUs, c.Batch, c.Samples, c.KARMA)
	case "dp":
		src, err := c.source()
		if err != nil {
			return nil, err
		}
		return ev.dataParallel(src, c.Cluster, c.GPUs, c.Batch, c.Samples)
	case "mp+dp":
		return ev.MegatronHybrid(c.Transformer, c.Cluster, c.MP, c.GPUs, c.Batch, c.Samples, c.Hybrid)
	case "zero":
		return ev.ZeRO(c.Transformer, c.Cluster, c.MP, c.GPUs, c.Batch, c.Samples, c.Hybrid)
	case "pipeline":
		return ev.Pipeline(c.Transformer, c.Cluster, c.Stages, c.GPUs, c.Batch, c.Micro, c.Samples, c.Hybrid)
	}
	return nil, fmt.Errorf("dist: unknown family %q", c.Family)
}

// BackendNames lists the selectable evaluator backends.
func BackendNames() []string { return []string{"analytic", "planned"} }

// ByName returns a fresh evaluator for the named backend.
func ByName(name string) (Evaluator, error) {
	switch name {
	case "analytic":
		return Analytic{}, nil
	case "planned":
		return NewPlanned(), nil
	default:
		return nil, fmt.Errorf("dist: unknown backend %q (have analytic, planned)", name)
	}
}
