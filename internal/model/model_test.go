package model

import (
	"testing"

	"karma/internal/graph"
)

// paramRange asserts the parameter count lies in [lo, hi] (Table III).
func paramRange(t *testing.T, g *graph.Graph, lo, hi int64) {
	t.Helper()
	p := g.ParamCount()
	if p < lo || p > hi {
		t.Errorf("%s: %d params, want in [%d, %d]", g.Name(), p, lo, hi)
	}
}

func TestResNet50Params(t *testing.T) {
	// Table III: >25M. Canonical torchvision count is 25.6M.
	paramRange(t, ResNet50(), 25_000_000, 27_000_000)
}

func TestResNet200Params(t *testing.T) {
	// Table III: >64M.
	paramRange(t, ResNet200(), 63_000_000, 68_000_000)
}

func TestResNet1001Params(t *testing.T) {
	// Table III: >10M.
	paramRange(t, ResNet1001(), 10_000_000, 12_000_000)
}

func TestVGG16Params(t *testing.T) {
	// Canonical VGG16 is 138.4M (Table III reports >169M including
	// framework bookkeeping; we assert the canonical weight count).
	paramRange(t, VGG16(), 135_000_000, 142_000_000)
}

func TestWRNParams(t *testing.T) {
	// Table III: >36M. Canonical WRN-28-10 is 36.5M.
	paramRange(t, WRN28_10(), 36_000_000, 38_000_000)
}

func TestUNetParams(t *testing.T) {
	// Table III: >31M.
	paramRange(t, UNet(), 31_000_000, 36_000_000)
}

func TestMegatronParams(t *testing.T) {
	cfgs := MegatronConfigs()
	want := []struct {
		name string
		lo   int64
		hi   int64
	}{
		{"megatron-0.3B", 250e6, 500e6},
		{"megatron-1.2B", 1.1e9, 1.3e9},
		{"megatron-2.5B", 2.3e9, 2.7e9},
		{"megatron-4.2B", 4.0e9, 4.5e9},
		{"megatron-8.3B", 8.1e9, 8.6e9},
	}
	for i, w := range want {
		if cfgs[i].Name != w.name {
			t.Errorf("config %d: name %q, want %q", i, cfgs[i].Name, w.name)
		}
		p := cfgs[i].Params()
		if p < w.lo || p > w.hi {
			t.Errorf("%s: Params() = %d, want in [%d, %d]", w.name, p, w.lo, w.hi)
		}
	}
}

func TestMegatron8BGraphMatchesFormula(t *testing.T) {
	cfg := MegatronConfigs()[4]
	g := Transformer(cfg)
	got := g.ParamCount()
	want := cfg.Params()
	// Graph includes layer norms and biases the closed form omits; allow 2%.
	if diff := got - want; diff < 0 || float64(diff) > 0.02*float64(want) {
		t.Errorf("graph params %d vs formula %d", got, want)
	}
}

func TestTuringNLGParams(t *testing.T) {
	p := TuringNLG().Params()
	// Fig. 8: 17B parameters.
	if p < 16.5e9 || p > 17.5e9 {
		t.Errorf("Turing-NLG params = %d, want ~17B", p)
	}
}

func TestTransformerHeadsDivide(t *testing.T) {
	for _, cfg := range append(MegatronConfigs(), TuringNLG()) {
		if cfg.Hidden%cfg.Heads != 0 {
			t.Errorf("%s: hidden %d not divisible by heads %d", cfg.Name, cfg.Hidden, cfg.Heads)
		}
	}
}

func TestAllModelsValidate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == "turing-nlg-17B" || name == "megatron-8.3B" {
				if testing.Short() {
					t.Skip("large transformer in -short mode")
				}
			}
			g, err := Build(name)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if g.Len() == 0 {
				t.Fatal("empty graph")
			}
			if g.FwdFLOPs() <= 0 {
				t.Error("non-positive forward FLOPs")
			}
		})
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("no-such-model"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestResNet50GraphSize(t *testing.T) {
	g := ResNet50()
	// 16 bottleneck blocks plus stem and head; each block is 11-13 nodes.
	if g.Len() < 150 || g.Len() > 250 {
		t.Errorf("resnet50 node count = %d, expected 150-250", g.Len())
	}
}

func TestResNet1001GraphSize(t *testing.T) {
	g := ResNet1001()
	if g.Len() < 3000 {
		t.Errorf("resnet1001 node count = %d, expected >3000", g.Len())
	}
}

func TestUNetHasPinnedSkips(t *testing.T) {
	g := UNet()
	// With a segmentation that cuts inside the skip region, the U-Net skip
	// edges must surface as pinned inputs (§III-F4 situation).
	segs := g.Segments(5)
	pinned := 0
	for _, s := range segs {
		pinned += len(s.PinnedIn)
	}
	if pinned == 0 {
		t.Error("U-Net should have pinned skip edges under loose segmentation")
	}
}

func TestResNetSegmentsCollapseResiduals(t *testing.T) {
	g := ResNet50()
	segs := g.Segments(1)
	// Strict segmentation must produce far fewer segments than nodes
	// (residual blocks collapse) but more than the number of stages.
	if len(segs) >= g.Len() || len(segs) < 10 {
		t.Errorf("resnet50 segments = %d of %d nodes", len(segs), g.Len())
	}
	for _, s := range segs {
		if len(s.PinnedIn) != 0 {
			t.Errorf("resnet50 strict segmentation should have no pinned edges, got %v", s.PinnedIn)
		}
	}
}

func TestMegatronSegments(t *testing.T) {
	cfg := MegatronConfigs()[0]
	g := Transformer(cfg)
	segs := g.Segments(1)
	// Each transformer layer has two residual spans; segmentation should
	// produce at least one segment per layer.
	if len(segs) < cfg.Layers {
		t.Errorf("megatron segments = %d, want >= %d", len(segs), cfg.Layers)
	}
}

func TestFLOPsScale(t *testing.T) {
	r50 := ResNet50().FwdFLOPs()
	// ResNet-50 forward is ~4 GFLOPs/sample (MAC-counted).
	if r50 < 3e9 || r50 > 6e9 {
		t.Errorf("resnet50 fwd FLOPs = %d, want ~4e9", r50)
	}
	vgg := VGG16().FwdFLOPs()
	// VGG16 is ~15.5 GFLOPs/sample, heavier than ResNet-50.
	if vgg <= r50 {
		t.Errorf("vgg16 (%d) should out-FLOP resnet50 (%d)", vgg, r50)
	}
}

func TestLSTMLM(t *testing.T) {
	g := LSTMLM()
	// Embedding 16.4M + 2 LSTM layers (~6.3M + 8.4M) + projection 32.8M.
	paramRange(t, g, 55_000_000, 75_000_000)
	if g.FwdFLOPs() <= 0 {
		t.Error("no forward work")
	}
	// Registry round trip.
	got, err := Build("lstm-lm")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got.ParamCount() != g.ParamCount() {
		t.Error("registry builder mismatch")
	}
}

// benchConfig is the mid-size transformer every per-layer benchmark
// measures, so their ns/op line up (BenchmarkProfileNew and
// BenchmarkPlan repeat the literal: test files cannot share it).
var benchConfig = TransformerConfig{Name: "bench-lm", Hidden: 1536, Heads: 24, Layers: 20, Seq: 1024, Vocab: 50000}

// BenchmarkTransformer measures the cold graph build of one evaluation:
// the full model (pipeline baseline, KARMA-DP) and the 4-way MP shard
// (the MP+DP and ZeRO hybrids).
func BenchmarkTransformer(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Transformer(benchConfig)
		}
	})
	b.Run("shard-mp4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TransformerShard(benchConfig, 4)
		}
	})
}

// TestTransformerConfigValidate pins the shapes Validate accepts and
// rejects: every shipped configuration passes, and each rejected shape
// is one the builders would panic on or overflow with.
func TestTransformerConfigValidate(t *testing.T) {
	ok := TransformerConfig{Hidden: 64, Heads: 8, Layers: 2, Seq: 128, Vocab: 1000}
	for _, c := range append(MegatronConfigs(), TuringNLG(), ok,
		TransformerConfig{Hidden: maxHidden, Heads: 1, Layers: maxLayers, Seq: maxSeq, Vocab: maxVocab}) {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	with := func(f func(*TransformerConfig)) TransformerConfig {
		c := ok
		f(&c)
		return c
	}
	for name, c := range map[string]TransformerConfig{
		"zero value":        {},
		"zero hidden":       with(func(c *TransformerConfig) { c.Hidden = 0 }),
		"negative heads":    with(func(c *TransformerConfig) { c.Heads = -8 }),
		"zero layers":       with(func(c *TransformerConfig) { c.Layers = 0 }),
		"zero seq":          with(func(c *TransformerConfig) { c.Seq = 0 }),
		"zero vocab":        with(func(c *TransformerConfig) { c.Vocab = 0 }),
		"heads not divisor": with(func(c *TransformerConfig) { c.Heads = 7 }),
		"heads over hidden": with(func(c *TransformerConfig) { c.Heads = 128 }),
		"hidden over cap":   with(func(c *TransformerConfig) { c.Hidden, c.Heads = 1<<62, 1 }),
		"seq over cap":      with(func(c *TransformerConfig) { c.Seq = maxSeq + 1 }),
		"vocab over cap":    with(func(c *TransformerConfig) { c.Vocab = maxVocab + 1 }),
		"layers over cap":   with(func(c *TransformerConfig) { c.Layers = maxLayers + 1 }),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: %+v validated", name, c)
		}
	}
}
