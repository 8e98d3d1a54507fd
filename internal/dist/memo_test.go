package dist

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
)

// TestMemoStatsAggregate checks the exported stats surfaces sum their
// member caches (the /stats endpoint of karma-serve reads these).
func TestMemoStatsAggregate(t *testing.T) {
	pe := NewPlanned()
	if s := pe.CacheStats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("fresh evaluator stats = %+v, want zeros", s)
	}
	pe.schedules.Do(schedKey{}, func() (planOutcome, error) {
		return planOutcome{}, nil
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

var retainRuns atomic.Int64

// TestEvaluationsRetainNoGraph: the profile is the unit the memos keep.
// Distinct transformer shapes run through all five families on both
// backends and through the planned exports. Every profile miss must
// build only the graph its family reads — the MP shard for MP+DP and
// ZeRO, the full model for the pipeline and the Graph-less data-parallel
// families — and no cache may keep any of them: once the evaluations
// return, every graph they built must be collectable.
func TestEvaluationsRetainNoGraph(t *testing.T) {
	var (
		mu     sync.Mutex
		builds = map[string][]bool{} // shape name -> shard flag per build
		built  atomic.Int64
		freed  atomic.Int64
	)
	buildHook = func(g *graph.Graph, shard bool) {
		shape, _, _ := strings.Cut(g.Name(), "/") // shards are "<name>/mp<k>"
		mu.Lock()
		builds[shape] = append(builds[shape], shard)
		mu.Unlock()
		built.Add(1)
		runtime.SetFinalizer(g, func(*graph.Graph) { freed.Add(1) })
	}
	t.Cleanup(func() { buildHook = nil })

	cl := hw.ABCI()
	// Shapes no other test (or earlier run of this one, under -count)
	// builds, so every profile lookup starts cold.
	run := retainRuns.Add(1)
	shape := func(name string) model.TransformerConfig {
		return model.TransformerConfig{Name: fmt.Sprintf("retain%d-%s", run, name), Hidden: 384, Heads: 6, Layers: 4, Seq: 96, Vocab: 4096}
	}
	hy := HybridOptions{Phased: true, Checkpoint: true}
	configs := func(prefix string) []Config {
		return []Config{
			{Family: "karma-dp", Transformer: shape(prefix + "karma-dp"), Cluster: cl, GPUs: 16, Batch: 4, Samples: samples},
			{Family: "dp", Transformer: shape(prefix + "dp"), Cluster: cl, GPUs: 16, Batch: 4, Samples: samples},
			{Family: "mp+dp", Transformer: shape(prefix + "mp+dp"), Cluster: cl, MP: 2, GPUs: 16, Batch: 4, Samples: samples, Hybrid: hy},
			{Family: "zero", Transformer: shape(prefix + "zero"), Cluster: cl, MP: 4, GPUs: 16, Batch: 4, Samples: samples, Hybrid: hy},
			{Family: "pipeline", Transformer: shape(prefix + "pipeline"), Cluster: cl, Stages: 2, Micro: 2, GPUs: 16, Batch: 4, Samples: samples, Hybrid: hy},
		}
	}
	wantShard := map[string]bool{"mp+dp": true, "zero": true}
	var cases []Config
	for _, ev := range []Evaluator{Analytic{}, NewPlanned()} {
		for _, c := range configs(ev.Name() + "-") {
			cases = append(cases, c)
			if _, err := Evaluate(ev, c); err != nil {
				t.Fatalf("%s %s: %v", ev.Name(), c.Family, err)
			}
		}
	}
	pe := NewPlanned()
	for _, c := range configs("export-") {
		if c.Family == "dp" {
			continue // closed form: nothing to export
		}
		cases = append(cases, c)
		if _, err := pe.Export(c); err != nil {
			t.Fatalf("export %s: %v", c.Family, err)
		}
	}

	mu.Lock()
	for _, c := range cases {
		kinds := builds[c.Transformer.Name]
		if len(kinds) == 0 {
			t.Errorf("%s: no graph built; the shape was not cold", c.Transformer.Name)
		}
		for _, shard := range kinds {
			if shard != wantShard[c.Family] {
				t.Errorf("%s: built a graph with shard=%v, want only shard=%v", c.Transformer.Name, shard, wantShard[c.Family])
			}
		}
	}
	mu.Unlock()

	// Finalizers run on their own goroutine after the collection that
	// finds a graph unreachable; poll a few cycles.
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < built.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if f, b := freed.Load(), built.Load(); f != b {
		t.Errorf("%d of %d graphs built by evaluations are still reachable after GC", b-f, b)
	}
}
