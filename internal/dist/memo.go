package dist

import (
	"karma/internal/flight"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/tensor"
	"karma/internal/unit"
)

// memoLimit is the entry bound of every evaluator cache (flight.Cache).
// It is set far above the distinct-key count of any batch sweep (a full
// Fig. 8 + Table IV/V + topology run touches a few hundred keys), so
// the CLI sweeps never see an eviction, while a long-running daemon
// serving request-derived keys stays bounded instead of growing for the
// life of the process.
const memoLimit = 8192

// must unwraps a lookup whose computation cannot fail: a non-nil error
// is a construction panic the cache captured, re-raised here.
func must[V any](v V, err error) V {
	if err != nil {
		panic(err)
	}
	return v
}

// SharedCacheStats sums the process-wide evaluator caches both backends
// share (graph/shard builds, shard profiles, schedules, footprints).
func SharedCacheStats() flight.Stats {
	return flight.Sum(sharedGraphs.Stats(), sharedShards.Stats(), sharedProfiles.Stats(),
		sharedScheds.Stats(), sharedFootprint.Stats())
}

// CacheStats sums the planner-backed evaluator's instance caches (KARMA
// replica profiles and partition searches).
func (p *Planned) CacheStats() flight.Stats {
	return flight.Sum(p.profiles.Stats(), p.schedules.Stats())
}

// ---------------------------------------------------------------------------
// Cross-grid memoization shared by both evaluator backends
// ---------------------------------------------------------------------------
//
// The hybrid and pipeline setup paths (hybridSetup, pipelineSetup) are
// pure functions of value-typed inputs: a transformer config, an MP
// degree, a node spec, a batch, a dtype, a byte budget. Dense sweeps
// hit the same (model, mp, precision) shard from many grid points —
// every GPU count of a Fig. 8 row, both exchange variants of the MP+DP
// curve, every topology of the sensitivity ladder — so the builds,
// profiles, in-core/checkpointed schedules and footprints are memoized
// process-wide, keyed by value (no caller pointers are retained). Both
// backends share these caches: the planned path re-simulates each
// configuration's exchange composition, but never re-profiles or
// re-partitions a shard shape the analytic path already solved.

// modelKey identifies a (possibly MP-sharded) transformer build: mp >=
// 1 selects the mp-way tensor-parallel shard build (the hybrids always
// profile the shard graph, degree 1 included, so collective markers are
// present), mp == 0 the plain full-model build the pipeline baseline
// partitions.
type modelKey struct {
	cfg model.TransformerConfig
	mp  int
}

// shardProfileKey identifies a shard profile: the build plus the
// profiling batch, node and dtype.
type shardProfileKey struct {
	mk    modelKey
	node  hw.Node
	batch int
	dt    tensor.DType
}

// shardSchedKey identifies an in-core or checkpointed schedule of a
// shard profile under an activation budget.
type shardSchedKey struct {
	pk     shardProfileKey
	budget unit.Bytes
	ckpt   bool
}

// graphKey identifies a full-model build: a model.Build registry name,
// or (name empty) a transformer configuration.
type graphKey struct {
	name string
	cfg  model.TransformerConfig
}

var (
	sharedGraphs    = flight.New[graphKey, *graph.Graph](memoLimit)
	sharedShards    = flight.New[modelKey, *model.Shard](memoLimit)
	sharedProfiles  = flight.New[shardProfileKey, *profiler.Profile](memoLimit)
	sharedScheds    = flight.New[shardSchedKey, *karma.Schedule](memoLimit)
	sharedFootprint = flight.New[shardProfileKey, unit.Bytes](memoLimit)
)

// CachedTransformer returns the process-wide cached full-model build for
// cfg. Every caller that builds a transformer graph — the experiment
// panels, the trace exporter, karma-serve — goes through this cache, so
// equal configurations are one *graph.Graph, and the planner-backed
// evaluator's pointer-keyed caches hit across callers instead of
// growing.
func CachedTransformer(cfg model.TransformerConfig) *graph.Graph {
	return must(sharedGraphs.Do(graphKey{cfg: cfg}, func() (*graph.Graph, error) {
		return model.Transformer(cfg), nil
	}))
}

// CachedModel is CachedTransformer for a model.Build registry name. An
// unknown name is an error, never cached.
func CachedModel(name string) (*graph.Graph, error) {
	return sharedGraphs.Do(graphKey{name: name}, func() (*graph.Graph, error) {
		return model.Build(name)
	})
}

// cachedShard returns the memoized 1/mp tensor-parallel shard build.
func cachedShard(cfg model.TransformerConfig, mp int) *model.Shard {
	return must(sharedShards.Do(modelKey{cfg: cfg, mp: mp}, func() (*model.Shard, error) {
		return model.TransformerShard(cfg, mp), nil
	}))
}

// cachedProfile returns the memoized profile for a model key: the
// mp-way shard build for mp >= 1, the full model for mp == 0 (the
// pipeline baseline partitions the unsharded transformer).
func cachedProfile(k shardProfileKey) (*profiler.Profile, error) {
	return sharedProfiles.Do(k, func() (*profiler.Profile, error) {
		g := CachedTransformer(k.mk.cfg)
		if k.mk.mp >= 1 {
			g = cachedShard(k.mk.cfg, k.mk.mp).Graph
		}
		return profiler.New(g, k.node, profiler.Options{Batch: k.batch, DType: k.dt})
	})
}

// cachedSchedule returns the memoized in-core (or checkpointed)
// schedule of the profile under the activation budget, or nil when the
// regime cannot fit — the capacity verdict both backends share. The
// profile must be the cachedProfile of k.pk (the key carries the
// identity; the pointer carries the data).
//
// "Does not fit" is a pure verdict of the key, so it is cached as a nil
// *value* rather than an error: the cache never retains errors, but a
// sweep that probes the same infeasible cell from every GPU count (the
// ZeRO capacity-batch boundary) must not re-run the capacity search per
// grid point.
func cachedSchedule(k shardSchedKey, p *profiler.Profile) *karma.Schedule {
	return must(sharedScheds.Do(k, func() (*karma.Schedule, error) {
		var s *karma.Schedule
		var err error
		if k.ckpt {
			s, err = karma.Checkpoint(p, k.budget)
		} else {
			s, err = karma.InCore(p, k.budget)
		}
		if err != nil {
			return nil, nil // the verdict: this regime cannot fit
		}
		return s, nil
	}))
}

// cachedFootprint returns the memoized minimal checkpointed activation
// footprint of the profile (karma.CheckpointFootprint scans every run
// count; infeasible sweep cells would otherwise pay that scan per grid
// point).
func cachedFootprint(k shardProfileKey, p *profiler.Profile) unit.Bytes {
	return must(sharedFootprint.Do(k, func() (unit.Bytes, error) {
		return karma.CheckpointFootprint(p), nil
	}))
}
