package dist

import (
	"encoding/json"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

// dispatchCase pairs a Config with the positional Evaluator call it
// names.
type dispatchCase struct {
	name       string
	cfg        Config
	positional func(ev Evaluator) (*Result, error)
}

// dispatchCases covers every family, plus the data-parallel families'
// Graph-less form that profiles Transformer by value.
func dispatchCases() []dispatchCase {
	cl := hw.ABCI()
	lm := smallLM()
	g := CachedTransformer(lm)
	cnn := model.SmallCNN()
	ko := KARMAOptions{ZeROShard: true, Precision: tensor.MixedFP16}
	ho := HybridOptions{Checkpoint: true, Precision: tensor.MixedFP16}
	phased := HybridOptions{Phased: true, Checkpoint: true}
	return []dispatchCase{
		{"karma-dp", Config{Family: "karma-dp", Graph: g, Cluster: cl, GPUs: 16, Batch: 8, Samples: samples, KARMA: ko},
			func(ev Evaluator) (*Result, error) { return ev.KARMADataParallel(g, cl, 16, 8, samples, ko) }},
		{"karma-dp from transformer", Config{Family: "karma-dp", Transformer: lm, Cluster: cl, GPUs: 16, Batch: 8, Samples: samples},
			func(ev Evaluator) (*Result, error) {
				return ev.KARMADataParallel(g, cl, 16, 8, samples, KARMAOptions{})
			}},
		{"dp", Config{Family: "dp", Graph: cnn, Cluster: cl, GPUs: 8, Batch: 32, Samples: samples},
			func(ev Evaluator) (*Result, error) { return ev.DataParallel(cnn, cl, 8, 32, samples) }},
		{"dp from transformer", Config{Family: "dp", Transformer: lm, Cluster: cl, GPUs: 8, Batch: 4, Samples: samples},
			func(ev Evaluator) (*Result, error) { return ev.DataParallel(g, cl, 8, 4, samples) }},
		{"mp+dp", Config{Family: "mp+dp", Transformer: lm, Cluster: cl, MP: 2, GPUs: 16, Batch: 4, Samples: samples, Hybrid: ho},
			func(ev Evaluator) (*Result, error) { return ev.MegatronHybrid(lm, cl, 2, 16, 4, samples, ho) }},
		{"zero", Config{Family: "zero", Transformer: lm, Cluster: cl, MP: 2, GPUs: 16, Batch: 4, Samples: samples, Hybrid: ho},
			func(ev Evaluator) (*Result, error) { return ev.ZeRO(lm, cl, 2, 16, 4, samples, ho) }},
		{"pipeline", Config{Family: "pipeline", Transformer: lm, Cluster: cl, Stages: 4, Micro: 4, GPUs: 16, Batch: 8, Samples: samples, Hybrid: phased},
			func(ev Evaluator) (*Result, error) { return ev.Pipeline(lm, cl, 4, 16, 8, 4, samples, phased) }},
	}
}

// TestEvaluateMatchesPositional pins that Evaluate is exactly the
// family's Evaluator method on both backends.
func TestEvaluateMatchesPositional(t *testing.T) {
	for _, backend := range BackendNames() {
		for _, tc := range dispatchCases() {
			ev, _ := ByName(backend)
			got, err := Evaluate(ev, tc.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", backend, tc.name, err)
			}
			ev, _ = ByName(backend)
			want, err := tc.positional(ev)
			if err != nil {
				t.Fatalf("%s %s positional: %v", backend, tc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: Evaluate = %+v, positional = %+v", backend, tc.name, got, want)
			}
		}
	}
	bad := []Config{
		{Family: "fsdp", Transformer: smallLM(), Cluster: hw.ABCI(), GPUs: 8, Batch: 4, Samples: samples},
		// A Graph-less data-parallel config must validate its transformer
		// instead of handing the builder a shape it panics on.
		{Family: "karma-dp", Transformer: model.TransformerConfig{Hidden: 64, Heads: 7, Layers: 1, Seq: 8, Vocab: 8},
			Cluster: hw.ABCI(), GPUs: 8, Batch: 4, Samples: samples},
		{Family: "dp", Cluster: hw.ABCI(), GPUs: 8, Batch: 4, Samples: samples},
	}
	for _, c := range bad {
		if r, err := Evaluate(Analytic{}, c); err == nil {
			t.Errorf("Evaluate(%+v) = %+v, want an error", c, r)
		}
	}
}

// TestExportMatchesEvaluation pins export ≡ evaluation: on a fresh
// evaluator an export carries the positional method's exact Result, the
// kept timeline is the one behind it (IterTime is its makespan for the
// hybrids, makespan plus the unscheduled update for streaming KARMA),
// and a kept plan never aliases the evaluator's pooled scratch.
func TestExportMatchesEvaluation(t *testing.T) {
	cfgs := model.MegatronConfigs()
	g, small := streamingConfig()
	cl := hw.ABCI()
	bulk := HybridOptions{Checkpoint: true}
	phased := HybridOptions{Phased: true, Checkpoint: true}
	cases := []struct {
		dispatchCase
		hybrid bool
	}{
		{dispatchCase{"streaming karma-dp", Config{Family: "karma-dp", Graph: g, Cluster: small, GPUs: 16, Batch: 8, Samples: samples},
			func(ev Evaluator) (*Result, error) {
				return ev.KARMADataParallel(g, small, 16, 8, samples, KARMAOptions{})
			}}, false},
		{dispatchCase{"in-core karma-dp", Config{Family: "karma-dp", Graph: g, Cluster: cl, GPUs: 16, Batch: 8, Samples: samples},
			func(ev Evaluator) (*Result, error) {
				return ev.KARMADataParallel(g, cl, 16, 8, samples, KARMAOptions{})
			}}, false},
		{dispatchCase{"mp+dp bulk", Config{Family: "mp+dp", Transformer: cfgs[2], Cluster: cl, MP: 4, GPUs: 256, Batch: 4, Samples: samples, Hybrid: bulk},
			func(ev Evaluator) (*Result, error) { return ev.MegatronHybrid(cfgs[2], cl, 4, 256, 4, samples, bulk) }}, true},
		{dispatchCase{"mp+dp phased", Config{Family: "mp+dp", Transformer: cfgs[2], Cluster: cl, MP: 4, GPUs: 256, Batch: 4, Samples: samples, Hybrid: phased},
			func(ev Evaluator) (*Result, error) { return ev.MegatronHybrid(cfgs[2], cl, 4, 256, 4, samples, phased) }}, true},
		{dispatchCase{"zero", Config{Family: "zero", Transformer: cfgs[1], Cluster: cl, MP: 2, GPUs: 64, Batch: 2, Samples: samples, Hybrid: bulk},
			func(ev Evaluator) (*Result, error) { return ev.ZeRO(cfgs[1], cl, 2, 64, 2, samples, bulk) }}, true},
		{dispatchCase{"pipeline", Config{Family: "pipeline", Transformer: cfgs[2], Cluster: cl, Stages: 4, Micro: 4, GPUs: 256, Batch: 4, Samples: samples, Hybrid: phased},
			func(ev Evaluator) (*Result, error) { return ev.Pipeline(cfgs[2], cl, 4, 256, 4, 4, samples, phased) }}, false},
	}
	for _, tc := range cases {
		pe := NewPlanned()
		ex, err := pe.Export(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.positional(NewPlanned())
		if err != nil {
			t.Fatalf("%s positional: %v", tc.name, err)
		}
		if !reflect.DeepEqual(ex.Result, want) {
			t.Errorf("%s: export result %+v, evaluation %+v", tc.name, ex.Result, want)
		}
		if tc.hybrid && ex.Timeline.Makespan != want.IterTime {
			t.Errorf("%s: makespan %v != IterTime %v", tc.name, ex.Timeline.Makespan, want.IterTime)
		}
	}

	// Streaming KARMA: the simulation leaves only the update off the
	// timeline.
	pe := NewPlanned()
	ex, err := pe.ExportKARMA(g, small, 16, 8, samples, KARMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := cachedProfile(profileKey{src: modelSrc{g: g}, node: small.Node, batch: 8, dt: tensor.FP32})
	if err != nil {
		t.Fatal(err)
	}
	s, err := pe.search(sp.p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Timeline.Makespan + updateCost(s, small, KARMAOptions{}, 1); got != ex.Result.IterTime {
		t.Errorf("streaming karma-dp: makespan + update = %v, IterTime %v", got, ex.Result.IterTime)
	}

	// A kept hybrid plan survives later evaluations reusing the pooled
	// scratch untouched. One P and no GC keep sync.Pool from dropping or
	// stranding the scratch between calls, so an export that wrongly used
	// it would be handed straight to the next evaluation.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hy, err := pe.ExportHybrid(cfgs[2], cl, 4, 256, 4, samples, false, phased)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() string {
		b, err := json.Marshal([]any{hy.Plan, hy.Compiled, hy.Timeline})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := snapshot()
	for i := 0; i < 20; i++ {
		gpus := 64 << (i % 4)
		o := HybridOptions{Phased: i%2 == 0, Checkpoint: true}
		var err error
		if i%3 == 0 {
			_, err = pe.ZeRO(cfgs[1], cl, 2, gpus, 2, samples, o)
		} else {
			_, err = pe.MegatronHybrid(cfgs[1+i%2], cl, 2<<(i%2), gpus, 4, samples, o)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if snapshot() != before {
		t.Error("hybrid export changed after later evaluations: it aliases pooled scratch")
	}
}
