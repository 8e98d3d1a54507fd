package dist

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/profiler"
)

// TestMemoStatsAggregate checks the exported stats surfaces sum their
// member caches (the /stats endpoint of karma-serve reads these).
func TestMemoStatsAggregate(t *testing.T) {
	pe := NewPlanned()
	if s := pe.CacheStats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("fresh evaluator stats = %+v, want zeros", s)
	}
	pe.profiles.Do(profileKey{batch: 1}, func() (*profiler.Profile, error) {
		return nil, nil
	})
	if s := pe.CacheStats(); s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after one miss: %+v", s)
	}
	// The shared caches are process-wide: only check the snapshot is
	// coherent (entries resident implies lookups happened).
	sh := SharedCacheStats()
	if sh.Entries > 0 && sh.Hits+sh.Misses == 0 {
		t.Errorf("shared stats incoherent: %+v", sh)
	}
}

// TestHybridBuildsNoFullGraph: the hybrid families profile only their
// MP shard, so a cold MP+DP or ZeRO evaluation must not build (or
// retain) the full-model graph; only the pipeline baseline, which
// partitions the unsharded transformer, adds one graph-cache entry.
func TestHybridBuildsNoFullGraph(t *testing.T) {
	cl := hw.ABCI()
	// A shape no other test in the package builds, so every lookup
	// below starts cold.
	cfg := model.TransformerConfig{Name: "no-full-graph-lm", Hidden: 384, Heads: 6, Layers: 5, Seq: 96, Vocab: 4096}
	graphs := func() uint64 { return sharedGraphs.Stats().Misses }

	before := graphs()
	if _, err := (Analytic{}).MegatronHybrid(cfg, cl, 2, 16, 4, samples, HybridOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := (Analytic{}).ZeRO(cfg, cl, 4, 16, 4, samples, HybridOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := graphs() - before; got != 0 {
		t.Fatalf("MP+DP and ZeRO added %d full-model graph builds, want 0", got)
	}
	if _, err := (Analytic{}).Pipeline(cfg, cl, 4, 16, 8, 2, samples, HybridOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := graphs() - before; got != 1 {
		t.Fatalf("pipeline added %d full-model graph builds, want 1", got)
	}
}
