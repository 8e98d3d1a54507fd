package dist

import (
	"fmt"

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
// share (graph builds, profiles, shard schedules, footprints).
func SharedCacheStats() flight.Stats {
	return flight.Sum(sharedGraphs.Stats(), sharedProfiles.Stats(), sharedScheds.Stats(), sharedFootprint.Stats())
}

// CacheStats reports the planner-backed evaluator's instance cache: the
// KARMA replica partition searches.
func (p *Planned) CacheStats() flight.Stats {
	return p.schedules.Stats()
}

// ---------------------------------------------------------------------------
// Cross-grid memoization shared by both evaluator backends
// ---------------------------------------------------------------------------
//
// Every evaluation reads its model through a profile (paper Fig. 1 steps
// 1-2): blocking, recompute, the plan and the simulator all cost the
// per-block table, never the graph. So the profile is the unit the memos
// keep. One process-wide cache holds every profile, keyed by value; a
// miss builds the graph, profiles it and drops it, keeping only the
// profile (and, for an MP shard, where its collectives fall). Dense
// sweeps hit the same (model, mp, precision) profile from many grid
// points — every GPU count of a Fig. 8 row, both exchange variants of
// the MP+DP curve, every topology of the sensitivity ladder — so the
// profiles, the shards' in-core/checkpointed schedules and their
// footprints are memoized process-wide. Both backends share these
// caches: the planned path re-simulates each configuration's exchange
// composition, but never re-profiles or re-partitions a shard shape the
// analytic path already solved.

// modelSrc is the model a profile derives from. A non-nil g is a
// caller's graph (registry and ad-hoc models), keyed by pointer: build
// it through CachedModel or CachedTransformer so equal models are one
// pointer. Otherwise the transformer cfg is built on a profile miss: its
// mp-way tensor-parallel shard for mp >= 1 (the hybrids always profile
// the shard, degree 1 included, so collective markers are present), the
// full model for mp == 0 (the data-parallel families, and the pipeline
// baseline, which partitions the unsharded transformer).
type modelSrc struct {
	g   *graph.Graph
	cfg model.TransformerConfig
	mp  int
}

// graphSrc is the model source of a caller's graph.
func graphSrc(g *graph.Graph) (modelSrc, error) {
	if g == nil {
		return modelSrc{}, fmt.Errorf("dist: nil graph")
	}
	return modelSrc{g: g}, nil
}

// profileKey identifies a profile: its model plus the node, profiling
// batch and dtype.
type profileKey struct {
	src   modelSrc
	node  hw.Node
	batch int
	dt    tensor.DType
}

// profiled is a profile cache entry: the per-block cost table and, for
// an MP shard, the per-block counts of the partial-sum all-reduces its
// forward and backward passes end with (arCounts) — all an evaluation
// reads of the graph the profile was built from.
type profiled struct {
	p            *profiler.Profile
	fwdAR, bwdAR []int
}

// shardSchedKey identifies an in-core or checkpointed schedule of a
// shard profile under an activation budget.
type shardSchedKey struct {
	pk     profileKey
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
	sharedProfiles  = flight.New[profileKey, profiled](memoLimit)
	sharedScheds    = flight.New[shardSchedKey, *karma.Schedule](memoLimit)
	sharedFootprint = flight.New[profileKey, unit.Bytes](memoLimit)
)

// CachedTransformer returns the process-wide cached full-model build for
// cfg, for callers that need the graph itself (the single-GPU planner,
// the trace exporter). Equal configurations are one *graph.Graph, so
// profiles keyed by that pointer hit across callers. Evaluations need no
// graph: a Config naming its Transformer profiles it by value.
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

// buildHook, when set, receives every graph a profile miss builds and
// whether it is an MP shard. It exists only so tests can check which
// graphs evaluations build and that none outlives its profile; nothing
// outside the tests sets it.
var buildHook func(g *graph.Graph, shard bool)

// cachedProfile returns the memoized profile for k. A miss on a
// transformer source builds only the graph k selects and drops it once
// profiled, so no cache entry retains a graph it did not receive.
func cachedProfile(k profileKey) (profiled, error) {
	return sharedProfiles.Do(k, func() (profiled, error) {
		g := k.src.g
		var sh *model.Shard
		if g == nil {
			if k.src.mp >= 1 {
				sh = model.TransformerShard(k.src.cfg, k.src.mp)
				g = sh.Graph
			} else {
				g = model.Transformer(k.src.cfg)
			}
			if buildHook != nil {
				buildHook(g, sh != nil)
			}
		}
		p, err := profiler.New(g, k.node, profiler.Options{Batch: k.batch, DType: k.dt})
		if err != nil {
			return profiled{}, err
		}
		out := profiled{p: p}
		if sh != nil {
			out.fwdAR, out.bwdAR = arCounts(sh, p)
		}
		return out, nil
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
func cachedFootprint(k profileKey, p *profiler.Profile) unit.Bytes {
	return must(sharedFootprint.Do(k, func() (unit.Bytes, error) {
		return karma.CheckpointFootprint(p), nil
	}))
}
