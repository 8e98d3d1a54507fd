package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/unit"
)

const samples = 1_000_000

// smallLM is a transformer small enough to profile in microseconds but
// large enough (≈40M parameters) to exercise the sharding paths.
func smallLM() model.TransformerConfig {
	return model.TransformerConfig{
		Name: "test-lm", Hidden: 512, Heads: 8, Layers: 12, Seq: 128, Vocab: 8192,
	}
}

// slowLinkCluster returns an ABCI-like cluster whose host link is slow
// enough that out-of-core streaming stalls the pipeline, making the
// KARMAOptions traffic differences observable in IterTime.
func slowLinkCluster() hw.Cluster {
	cl := hw.ABCI()
	cl.Node.Link.BWPerDirection = 2 * unit.GBps
	return cl
}

func TestKARMAUndersizedCluster(t *testing.T) {
	cl := hw.ABCI()
	g := model.SmallCNN()
	r, err := KARMADataParallel(g, cl, cl.TotalDevices()+1, 32, samples, KARMAOptions{})
	if err != nil {
		t.Fatalf("KARMADataParallel: %v", err)
	}
	if r.Feasible {
		t.Fatal("requesting more GPUs than the cluster has must be infeasible")
	}
	if !strings.Contains(r.Reason, "devices") {
		t.Errorf("Reason %q should name the device shortfall", r.Reason)
	}
	if r.GPUs != cl.TotalDevices()+1 {
		t.Errorf("infeasible result should keep GPUs = %d, got %d", cl.TotalDevices()+1, r.GPUs)
	}
}

func TestKARMABlockTooLarge(t *testing.T) {
	cl := hw.ABCI()
	cl.Node.Device.MemCapacity = 2 * unit.GiB
	cl.Node.Device.Reserved = unit.GiB
	g := model.Transformer(smallLM())
	// At a huge batch a single transformer layer's working set exceeds
	// the 1 GiB budget; no amount of streaming can run it.
	r, err := KARMADataParallel(g, cl, 4, 4096, samples, KARMAOptions{})
	if err != nil {
		t.Fatalf("KARMADataParallel: %v", err)
	}
	if r.Feasible {
		t.Fatal("a block larger than device memory must be infeasible")
	}
	if !strings.Contains(r.Reason, "block") {
		t.Errorf("Reason %q should name the oversized block", r.Reason)
	}
}

// TestKARMAArgumentErrors checks that malformed runs are errors under
// both backends — including request-derived counts whose global batch
// would overflow int, which once panicked (divide by zero) or reported
// a zero global batch.
func TestKARMAArgumentErrors(t *testing.T) {
	cl := hw.ABCI()
	g := model.SmallCNN()
	for _, ev := range []Evaluator{Analytic{}, NewPlanned()} {
		cases := []struct {
			name string
			run  func() (*Result, error)
		}{
			{"nil graph", func() (*Result, error) { return ev.KARMADataParallel(nil, cl, 4, 32, samples, KARMAOptions{}) }},
			{"zero GPUs", func() (*Result, error) { return ev.KARMADataParallel(g, cl, 0, 32, samples, KARMAOptions{}) }},
			{"zero batch", func() (*Result, error) { return ev.KARMADataParallel(g, cl, 4, 0, samples, KARMAOptions{}) }},
			{"zero samples", func() (*Result, error) { return ev.KARMADataParallel(g, cl, 4, 32, 0, KARMAOptions{}) }},
			{"non-positive MP factor", func() (*Result, error) { return ev.MegatronHybrid(smallLM(), cl, 0, 16, 4, samples, HybridOptions{}) }},
			{"degenerate transformer", func() (*Result, error) {
				return ev.ZeRO(model.TransformerConfig{}, cl, 1, 16, 4, samples, HybridOptions{})
			}},
			{"dp global batch overflow", func() (*Result, error) { return ev.DataParallel(g, cl, 8, 1<<62, samples) }},
			{"karma-dp global batch overflow", func() (*Result, error) {
				return ev.KARMADataParallel(g, cl, 1<<62, 4, samples, KARMAOptions{})
			}},
			// A node count whose device total overflows once read as a
			// cluster of 0 devices; a batch this large overflowed the
			// profiler's byte sizes into a panic.
			{"cluster device count overflow", func() (*Result, error) {
				huge := cl
				huge.Nodes = 1 << 62
				return ev.KARMADataParallel(g, huge, 4, 32, samples, KARMAOptions{})
			}},
			{"per-replica batch over cap", func() (*Result, error) { return ev.DataParallel(g, cl, 8, 1<<50, samples) }},
		}
		for _, tc := range cases {
			if r, err := tc.run(); err == nil {
				t.Errorf("%s %s: got %+v, want an error", ev.Name(), tc.name, r)
			}
		}
	}
}

func TestKARMAOptionUpdateOnDevice(t *testing.T) {
	cl := slowLinkCluster()
	g := model.Transformer(model.MegatronConfigs()[2]) // 2.5B: heavily out-of-core
	host, err := KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{})
	if err != nil {
		t.Fatalf("host update: %v", err)
	}
	dev, err := KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{UpdateOnDevice: true})
	if err != nil {
		t.Fatalf("device update: %v", err)
	}
	if !host.Feasible || !dev.Feasible {
		t.Fatalf("both variants must be feasible: host=%v dev=%v", host, dev)
	}
	// Moving the update back to the GPU round-trips momentum over the
	// (slow) link, which must cost strictly more than the host-side
	// update here and can never beat it anywhere (ablation A4).
	if dev.IterTime <= host.IterTime {
		t.Errorf("device update (%v) should stall beyond host update (%v)", dev.IterTime, host.IterTime)
	}
}

func TestKARMAOptionZeROShard(t *testing.T) {
	cl := slowLinkCluster()
	g := model.Transformer(model.MegatronConfigs()[2])
	plain, err := KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	combo, err := KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{ZeROShard: true})
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if !plain.Feasible || !combo.Feasible {
		t.Fatalf("both variants must be feasible: plain=%v combo=%v", plain, combo)
	}
	// Sharding gradient and optimizer state shrinks the streamed
	// footprint; with the link saturated the reduction must show up as a
	// strictly faster iteration (Fig. 8's ZeRO+KARMA composition).
	if combo.IterTime >= plain.IterTime {
		t.Errorf("ZeRO+KARMA (%v) should beat plain KARMA (%v) on a saturated link", combo.IterTime, plain.IterTime)
	}
}

func TestKARMAEpochTimeMonotonicInGPUs(t *testing.T) {
	cl := hw.ABCI()
	g := model.ResNet50()
	prev := unit.Seconds(math.Inf(1))
	for _, gpus := range []int{32, 64, 128, 256} {
		r, err := KARMADataParallel(g, cl, gpus, 64, samples, KARMAOptions{})
		if err != nil {
			t.Fatalf("%d GPUs: %v", gpus, err)
		}
		if !r.Feasible {
			t.Fatalf("%d GPUs infeasible: %s", gpus, r.Reason)
		}
		if r.EpochTime >= prev {
			t.Errorf("%d GPUs: epoch %v did not improve on %v", gpus, r.EpochTime, prev)
		}
		prev = r.EpochTime
	}
}

// TestResultDerivedFields checks the fields finalize derives, up to a
// sample count of MaxInt (whose epoch once overflowed negative).
func TestResultDerivedFields(t *testing.T) {
	cl := hw.ABCI()
	g := model.SmallCNN()
	const gpus, batch = 16, 32
	for _, n := range []int{samples, math.MaxInt} {
		r, err := KARMADataParallel(g, cl, gpus, batch, n, KARMAOptions{})
		if err != nil {
			t.Fatalf("samples %d: KARMADataParallel: %v", n, err)
		}
		if !r.Feasible {
			t.Fatalf("samples %d: infeasible: %s", n, r.Reason)
		}
		if r.GlobalBatch != gpus*batch {
			t.Errorf("samples %d: GlobalBatch = %d, want %d", n, r.GlobalBatch, gpus*batch)
		}
		if got, want := r.IterPerSec, 1/float64(r.IterTime); math.Abs(got-want) > 1e-9*want {
			t.Errorf("samples %d: IterPerSec = %v, want %v", n, got, want)
		}
		iters := math.Ceil(float64(n) / float64(r.GlobalBatch))
		if got, want := float64(r.EpochTime), iters*float64(r.IterTime); math.Abs(got-want) > 1e-6*want {
			t.Errorf("samples %d: EpochTime = %v, want %v", n, got, want)
		}
		if got, want := r.CostPerf, float64(gpus)*float64(r.IterTime)/float64(r.GlobalBatch); math.Abs(got-want) > 1e-9*want {
			t.Errorf("samples %d: CostPerf = %v, want %v", n, got, want)
		}
	}
}

func TestDataParallelRequiresInCore(t *testing.T) {
	cl := hw.ABCI()
	g := model.ResNet50()
	// Batch 512 is far beyond the V100's capacity (Fig. 5 grid).
	dp, err := DataParallel(g, cl, 16, 512, samples)
	if err != nil {
		t.Fatalf("DataParallel: %v", err)
	}
	if dp.Feasible {
		t.Fatal("conventional DP must be infeasible beyond device memory")
	}
	if !strings.Contains(dp.Reason, "KARMADataParallel") {
		t.Errorf("Reason %q should point at the out-of-core path", dp.Reason)
	}
	karma, err := KARMADataParallel(g, cl, 16, 512, samples, KARMAOptions{})
	if err != nil {
		t.Fatalf("KARMADataParallel: %v", err)
	}
	if !karma.Feasible {
		t.Fatalf("KARMA should train the same batch out-of-core: %s", karma.Reason)
	}
	// Where both run, they agree: at an in-core batch KARMA degenerates
	// to conventional data parallelism.
	small, err := DataParallel(g, cl, 16, 64, samples)
	if err != nil {
		t.Fatal(err)
	}
	kSmall, err := KARMADataParallel(g, cl, 16, 64, samples, KARMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !small.Feasible || !kSmall.Feasible {
		t.Fatal("in-core configs must be feasible")
	}
	if math.Abs(float64(small.IterTime-kSmall.IterTime)) > 1e-9 {
		t.Errorf("in-core KARMA (%v) should match DP (%v)", kSmall.IterTime, small.IterTime)
	}
}

func TestMegatronHybridValidation(t *testing.T) {
	cl := hw.ABCI()
	cfg := smallLM()
	r, err := MegatronHybrid(cfg, cl, 3, 16, 4, samples, HybridOptions{})
	if err != nil {
		t.Fatalf("MegatronHybrid: %v", err)
	}
	if r.Feasible {
		t.Error("16 GPUs cannot divide into MP groups of 3")
	}
	// The 2.5B model cannot fit a single V100 unsharded (the paper's
	// premise): MP=1 must be infeasible with a memory reason.
	big := model.MegatronConfigs()[2]
	r, err = MegatronHybrid(big, cl, 1, 64, 4, samples, HybridOptions{})
	if err != nil {
		t.Fatalf("MegatronHybrid: %v", err)
	}
	if r.Feasible {
		t.Error("2.5B at MP=1 should exceed device memory")
	}
	if !strings.Contains(r.Reason, "memory") {
		t.Errorf("Reason %q should name the memory shortfall", r.Reason)
	}
}

func TestPhasedExchangeNeverLoses(t *testing.T) {
	cl := hw.ABCI()
	cfg := smallLM()
	for _, gpus := range []int{16, 64, 256} {
		plain, err := MegatronHybrid(cfg, cl, 4, gpus, 4, samples, HybridOptions{})
		if err != nil {
			t.Fatalf("%d GPUs plain: %v", gpus, err)
		}
		opt, err := MegatronHybrid(cfg, cl, 4, gpus, 4, samples, HybridOptions{Phased: true})
		if err != nil {
			t.Fatalf("%d GPUs phased: %v", gpus, err)
		}
		if !plain.Feasible || !opt.Feasible {
			t.Fatalf("%d GPUs: infeasible hybrid", gpus)
		}
		if opt.IterTime > plain.IterTime {
			t.Errorf("%d GPUs: phased exchange (%v) slower than bulk (%v)", gpus, opt.IterTime, plain.IterTime)
		}
	}
}

func TestZeROFitsWhereHybridFits(t *testing.T) {
	cl := hw.ABCI()
	cfg := model.TuringNLG()
	// Turing-NLG's shipped configuration trained with activation
	// checkpointing; without it even the MP=16 shard's per-layer
	// activations exceed a V100 at batch 2.
	ckpt := HybridOptions{Phased: true, Checkpoint: true}
	z, err := ZeRO(cfg, cl, 16, 512, 2, samples, ckpt)
	if err != nil {
		t.Fatalf("ZeRO: %v", err)
	}
	if !z.Feasible {
		t.Fatalf("Turing-NLG at MP=16 should fit with ZeRO sharding and checkpointing: %s", z.Reason)
	}
	h, err := MegatronHybrid(cfg, cl, 16, 512, 2, samples, ckpt)
	if err != nil {
		t.Fatalf("MegatronHybrid: %v", err)
	}
	if !h.Feasible {
		t.Fatalf("hybrid baseline infeasible: %s", h.Reason)
	}
	// Sharding the optimizer work can only help the iteration.
	if z.IterTime > h.IterTime {
		t.Errorf("ZeRO (%v) slower than the plain phased hybrid (%v)", z.IterTime, h.IterTime)
	}
	// ZeRO's defining property: at MP=8 the unsharded hybrid no longer
	// fits a V100 even checkpointed (two full weight copies), but
	// partitioning gradient+optimizer state across the 64 replicas does.
	h8, err := MegatronHybrid(cfg, cl, 8, 512, 2, samples, ckpt)
	if err != nil {
		t.Fatalf("MegatronHybrid mp=8: %v", err)
	}
	if h8.Feasible {
		t.Error("Turing-NLG at MP=8 should exceed device memory without sharding")
	}
	z8, err := ZeRO(cfg, cl, 8, 512, 2, samples, ckpt)
	if err != nil {
		t.Fatalf("ZeRO mp=8: %v", err)
	}
	if !z8.Feasible {
		t.Errorf("ZeRO should fit Turing-NLG at MP=8 by sharding the optimizer state: %s", z8.Reason)
	}
}

// ---------------------------------------------------------------------------
// Evaluator backends (Analytic vs Planned)
// ---------------------------------------------------------------------------

func TestByName(t *testing.T) {
	for _, name := range BackendNames() {
		ev, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if ev.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, ev.Name())
		}
	}
	if _, err := ByName("quantum"); err == nil {
		t.Error("unknown backend should error")
	}
}

// The hand-picked KARMA backend feasibility-agreement grid that used to
// live here is subsumed by the randomized harness in property_test.go
// (TestBackendProperties). The exact in-core coincidence below is a
// stronger statement than agreement and stays pinned by hand.

// TestBackendsAgreeInCore: where the replica runs fully in-core, the
// planner degenerates to conventional data parallelism and the two
// backends must coincide exactly.
func TestBackendsAgreeInCore(t *testing.T) {
	cl := hw.ABCI()
	g := model.ResNet50()
	an := Analytic{}
	pe := NewPlanned()
	ra, err := an.KARMADataParallel(g, cl, 16, 64, samples, KARMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := pe.KARMADataParallel(g, cl, 16, 64, samples, KARMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ra.Feasible || !rp.Feasible {
		t.Fatalf("in-core config must be feasible: %v %v", ra, rp)
	}
	if ra.IterTime != rp.IterTime {
		t.Errorf("in-core iteration differs: analytic %v, planned %v", ra.IterTime, rp.IterTime)
	}
	if ra.Backend != "analytic" || rp.Backend != "planned" {
		t.Errorf("backend tags: %q, %q", ra.Backend, rp.Backend)
	}
}

// TestIterMonotoneInDeviceMemory: more device memory never slows the
// iteration, under either backend.
func TestIterMonotoneInDeviceMemory(t *testing.T) {
	g := model.ResNet50()
	pe := NewPlanned()
	for _, ev := range []Evaluator{Analytic{}, pe} {
		prev := unit.Seconds(math.Inf(1))
		for _, gib := range []float64{12, 16, 24, 32, 48} {
			cl := hw.ABCI()
			cl.Node.Device.MemCapacity = unit.Bytes(gib * float64(unit.GiB))
			r, err := ev.KARMADataParallel(g, cl, 16, 512, samples, KARMAOptions{})
			if err != nil {
				t.Fatalf("%s %vGiB: %v", ev.Name(), gib, err)
			}
			if !r.Feasible {
				t.Fatalf("%s %vGiB: infeasible: %s", ev.Name(), gib, r.Reason)
			}
			if r.Backend != ev.Name() {
				t.Fatalf("%s %vGiB: backend tag %q (silent fallback?)", ev.Name(), gib, r.Backend)
			}
			if float64(r.IterTime) > float64(prev)*1.0001 {
				t.Errorf("%s: %vGiB iteration %v regressed from %v", ev.Name(), gib, r.IterTime, prev)
			}
			prev = r.IterTime
		}
	}
}

// TestIterMonotoneInModelSize: a deeper transformer never trains faster
// per iteration, under either backend.
func TestIterMonotoneInModelSize(t *testing.T) {
	pe := NewPlanned()
	for _, ev := range []Evaluator{Analytic{}, pe} {
		prev := unit.Seconds(0)
		for _, layers := range []int{6, 12, 24, 36} {
			cfg := model.TransformerConfig{
				Name: fmt.Sprintf("mono-lm-%d", layers), Hidden: 1024, Heads: 16,
				Layers: layers, Seq: 512, Vocab: 16384,
			}
			g := model.Transformer(cfg)
			cl := hw.ABCI()
			cl.Node.Device.MemCapacity = 8 * unit.GiB
			r, err := ev.KARMADataParallel(g, cl, 16, 8, samples, KARMAOptions{})
			if err != nil {
				t.Fatalf("%s L=%d: %v", ev.Name(), layers, err)
			}
			if !r.Feasible {
				t.Fatalf("%s L=%d: infeasible: %s", ev.Name(), layers, r.Reason)
			}
			if r.Backend != ev.Name() {
				t.Fatalf("%s L=%d: backend tag %q (silent fallback?)", ev.Name(), layers, r.Backend)
			}
			if float64(r.IterTime) < float64(prev)*0.9999 {
				t.Errorf("%s: %d layers iterate in %v, faster than %v with fewer layers",
					ev.Name(), layers, r.IterTime, prev)
			}
			prev = r.IterTime
		}
	}
}

// TestPlannedZeROShardHelps mirrors TestKARMAOptionZeROShard on the
// planner-backed path: sharding the streamed gradients can only help.
func TestPlannedZeROShardHelps(t *testing.T) {
	cl := slowLinkCluster()
	g := model.Transformer(model.MegatronConfigs()[2])
	pe := NewPlanned()
	plain, err := pe.KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	combo, err := pe.KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{ZeROShard: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Feasible || !combo.Feasible {
		t.Fatalf("both variants must be feasible: %v %v", plain, combo)
	}
	if plain.Backend != "planned" || combo.Backend != "planned" {
		t.Fatalf("backend tags %q/%q: the planner-backed path silently fell back", plain.Backend, combo.Backend)
	}
	if combo.IterTime > plain.IterTime {
		t.Errorf("planned ZeRO+KARMA (%v) slower than plain (%v) on a saturated link",
			combo.IterTime, plain.IterTime)
	}
}

// TestPlannedUpdateOnDeviceNeverFaster mirrors ablation A4 on the
// planner-backed path: the momentum round-trip cannot win.
func TestPlannedUpdateOnDeviceNeverFaster(t *testing.T) {
	cl := slowLinkCluster()
	g := model.Transformer(model.MegatronConfigs()[2])
	pe := NewPlanned()
	host, err := pe.KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pe.KARMADataParallel(g, cl, 16, 4, samples, KARMAOptions{UpdateOnDevice: true})
	if err != nil {
		t.Fatal(err)
	}
	if !host.Feasible || !dev.Feasible {
		t.Fatalf("both variants must be feasible: %v %v", host, dev)
	}
	if host.Backend != "planned" || dev.Backend != "planned" {
		t.Fatalf("backend tags %q/%q: the planner-backed path silently fell back", host.Backend, dev.Backend)
	}
	if dev.IterTime < host.IterTime {
		t.Errorf("planned device update (%v) beat host update (%v)", dev.IterTime, host.IterTime)
	}
}
