package profiler

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
	"karma/internal/unit"
)

func TestNewBasicInvariants(t *testing.T) {
	g := model.SmallCNN()
	p, err := New(g, hw.ABCINode(), Options{Batch: 32})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(p.Blocks) == 0 {
		t.Fatal("no blocks")
	}
	var fwd, bwd unit.Seconds
	for i, b := range p.Blocks {
		if b.FwdTime < 0 || b.BwdTime < 0 || b.ActBytes < 0 || b.SwapTime < 0 {
			t.Errorf("block %d: negative cost %+v", i, b)
		}
		if b.BwdTime < b.FwdTime {
			t.Errorf("block %d: backward (%v) cheaper than forward (%v)", i, b.BwdTime, b.FwdTime)
		}
		fwd += b.FwdTime
		bwd += b.BwdTime
	}
	if fwd <= 0 || bwd <= 0 {
		t.Error("zero aggregate compute time")
	}
}

func TestBatchScaling(t *testing.T) {
	g := model.SmallCNN()
	node := hw.ABCINode()
	p1, err := New(g, node, Options{Batch: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p2, err := New(g, node, Options{Batch: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// §III-D projection: per-sample quantities scale linearly with batch;
	// weights do not.
	if p2.TotalActBytes != 2*p1.TotalActBytes {
		t.Errorf("activations: %v vs 2x %v", p2.TotalActBytes, p1.TotalActBytes)
	}
	if p2.TotalWeightBytes != p1.TotalWeightBytes {
		t.Error("weights must not scale with batch")
	}
	for i := range p1.Blocks {
		if p2.Blocks[i].FwdTime != 2*p1.Blocks[i].FwdTime {
			t.Errorf("block %d: fwd time not linear in batch", i)
		}
	}
}

func TestActOverhead(t *testing.T) {
	g := model.SmallCNN()
	node := hw.ABCINode()
	p1, _ := New(g, node, Options{Batch: 8})
	p2, _ := New(g, node, Options{Batch: 8, ActOverhead: 2})
	if p2.TotalActBytes != 2*p1.TotalActBytes {
		t.Errorf("overhead 2 should double activations: %v vs %v", p2.TotalActBytes, p1.TotalActBytes)
	}
	if p2.TotalWeightBytes != p1.TotalWeightBytes {
		t.Error("overhead must not touch weights")
	}
}

func TestBadOptions(t *testing.T) {
	g := model.SmallCNN()
	if _, err := New(g, hw.ABCINode(), Options{Batch: 0}); err == nil {
		t.Error("batch 0 should error")
	}
	if _, err := New(g, hw.ABCINode(), Options{Batch: 1, ActOverhead: -1}); err == nil {
		t.Error("negative overhead should error")
	}
	bad := hw.ABCINode()
	bad.Device.MemCapacity = 0
	if _, err := New(g, bad, Options{Batch: 1}); err == nil {
		t.Error("invalid device should error")
	}
}

func TestResNet50FeasibilityBoundary(t *testing.T) {
	// Fig. 5: ResNet-50 batch 128 trains in-core on a 16 GiB V100;
	// batch 256 does not.
	g := model.ResNet50()
	node := hw.ABCINode()
	p128, err := New(g, node, Options{Batch: 128})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !p128.FitsInCore() {
		t.Errorf("batch 128 should fit in-core: footprint %v of %v",
			p128.InCoreBytes(), node.Device.UsableMem())
	}
	p256, err := New(g, node, Options{Batch: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p256.FitsInCore() {
		t.Errorf("batch 256 should NOT fit in-core: footprint %v of %v",
			p256.InCoreBytes(), node.Device.UsableMem())
	}
}

func TestSwapTimeUsesLinkBottleneck(t *testing.T) {
	g := model.SmallCNN()
	node := hw.ABCINode()
	p, _ := New(g, node, Options{Batch: 64})
	bw := hw.SwapThroughput(node)
	for i, b := range p.Blocks {
		want := unit.TransferTime(b.ActBytes+b.WeightBytes, bw, node.Link.Latency)
		if b.SwapTime != want {
			t.Errorf("block %d: swap time %v, want %v", i, b.SwapTime, want)
		}
	}
}

func TestMergeBlocks(t *testing.T) {
	g := model.ResNet50()
	p, err := New(g, hw.ABCINode(), Options{Batch: 32})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(p.Blocks) < 3 {
		t.Skip("need at least 3 blocks")
	}
	m := p.MergeBlocks(0, 3)
	var fwd unit.Seconds
	var act unit.Bytes
	var nodes int
	for _, b := range p.Blocks[:3] {
		fwd += b.FwdTime
		act += b.ActBytes
		nodes += len(b.Seg.Nodes)
	}
	if m.FwdTime != fwd {
		t.Errorf("merged fwd = %v, want %v", m.FwdTime, fwd)
	}
	if m.ActBytes != act {
		t.Errorf("merged act = %v, want %v", m.ActBytes, act)
	}
	if len(m.Seg.Nodes) != nodes {
		t.Errorf("merged nodes = %d, want %d", len(m.Seg.Nodes), nodes)
	}
	// Boundary tensor is the last block's.
	if m.OutBytes != p.Blocks[2].OutBytes {
		t.Error("merged OutBytes should be the last block's")
	}
	// Merging must not mutate the source profile.
	if p.Blocks[0].FwdTime == fwd && len(p.Blocks) > 1 {
		t.Error("MergeBlocks mutated the profile")
	}
}

func TestMergeBlocksBadRangePanics(t *testing.T) {
	g := model.SmallCNN()
	p, _ := New(g, hw.ABCINode(), Options{Batch: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.MergeBlocks(2, 1)
}

func TestUNetPinnedBytes(t *testing.T) {
	g := model.UNet()
	p, err := New(g, hw.ABCINode(), Options{Batch: 8, MaxOpen: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var pinned unit.Bytes
	for _, b := range p.Blocks {
		pinned += b.PinnedInBytes
	}
	if pinned == 0 {
		t.Error("U-Net skips should produce pinned bytes under loose segmentation")
	}
}

func TestMegatronWeightsExceedDevice(t *testing.T) {
	// The 8.3B model's weights alone (33 GiB fp32) exceed a 16 GiB V100 —
	// the scenario motivating out-of-core weight swapping (§I).
	cfg := model.MegatronConfigs()[4]
	g := model.Transformer(cfg)
	p, err := New(g, hw.ABCINode(), Options{Batch: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p.TotalWeightBytes <= p.Node.Device.UsableMem() {
		t.Errorf("megatron-8.3B weights %v should exceed device %v",
			p.TotalWeightBytes, p.Node.Device.UsableMem())
	}
	if p.FitsInCore() {
		t.Error("megatron-8.3B must not fit in-core")
	}
}

func TestFP16HalvesFootprints(t *testing.T) {
	// Mixed-precision training halves every byte quantity (activations,
	// weights, swap payloads) while leaving FLOP-derived times unchanged
	// in this model.
	g := model.ResNet50()
	node := hw.ABCINode()
	fp32, err := New(g, node, Options{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	fp16, err := New(g, node, Options{Batch: 64, DType: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if fp16.TotalActBytes != fp32.TotalActBytes/2 {
		t.Errorf("fp16 acts %v, want half of %v", fp16.TotalActBytes, fp32.TotalActBytes)
	}
	if fp16.TotalWeightBytes != fp32.TotalWeightBytes/2 {
		t.Errorf("fp16 weights %v, want half of %v", fp16.TotalWeightBytes, fp32.TotalWeightBytes)
	}
	for i := range fp32.Blocks {
		if fp16.Blocks[i].FwdTime != fp32.Blocks[i].FwdTime {
			t.Fatalf("block %d: dtype changed compute time", i)
		}
		if fp16.Blocks[i].SwapTime >= fp32.Blocks[i].SwapTime && fp32.Blocks[i].ActBytes > 0 {
			t.Fatalf("block %d: fp16 swap not cheaper", i)
		}
	}
}

func TestTensorCoreBoostSpeedsUpFP16Profile(t *testing.T) {
	g := model.SmallCNN()
	plain := hw.ABCINode()
	boosted := plain
	boosted.Device = boosted.Device.WithTensorCores(4)

	base, err := New(g, plain, Options{Batch: 32, DType: tensor.FP16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fast, err := New(g, boosted, Options{Batch: 32, DType: tensor.FP16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bf, bb, _ := base.Totals()
	ff, fb, _ := fast.Totals()
	if ff*4 != bf || fb*4 != bb {
		t.Errorf("4x boost should quarter fp16 compute: fwd %v->%v, bwd %v->%v", bf, ff, bb, fb)
	}
	// fp32 profiles never see the boost.
	b32, err := New(g, plain, Options{Batch: 32})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f32, err := New(g, boosted, Options{Batch: 32})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gf, gb, _ := b32.Totals()
	hf, hb, _ := f32.Totals()
	if gf != hf || gb != hb {
		t.Error("tensor-core boost must not change fp32 compute times")
	}
}

// BenchmarkProfileNew measures profiling the full mid-size transformer
// (hidden 1536, 24 heads, 20 layers, seq 1024, vocab 50k) at batch 8:
// shape-derived segment costs, Segments included.
func BenchmarkProfileNew(b *testing.B) {
	g := model.Transformer(model.TransformerConfig{Name: "bench-lm", Hidden: 1536, Heads: 24, Layers: 20, Seq: 1024, Vocab: 50000})
	node := hw.ABCINode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(g, node, Options{Batch: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
