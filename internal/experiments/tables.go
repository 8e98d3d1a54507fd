package experiments

import (
	"fmt"

	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/model"
)

// TableI renders the qualitative capability matrix of related approaches
// (paper Table I). It is static metadata; the per-method behaviours are
// exercised by the baseline package's tests.
func TableI() *Table {
	t := &Table{
		ID:    "table1",
		Title: "limitations and restrictions of related approaches",
		Headers: []string{
			"name", "approach", "min req. memory", "universal", "multi-node", "strong scaling", "fault tolerance",
		},
		Rows: [][]string{
			{"vDNN++", "OOC", "none", "no", "no", "n/a", "n/a"},
			{"ooc_cuDNN", "OOC", "none", "no", "no", "n/a", "n/a"},
			{"Gradient Checkpoint", "RECOMP", "O(sqrt N)", "yes", "yes", "no", "yes"},
			{"SuperNeurons", "OOC & RECOMP", "O(sqrt N)", "no", "no", "n/a", "n/a"},
			{"PoocH", "OOC & RECOMP", "O(sqrt N)", "no", "no", "n/a", "n/a"},
			{"Graph Partitioning", "implicit MP", "none", "yes", "no", "no", "no"},
			{"FlexFlow", "explicit MP", "O(sqrt P)", "no", "yes", "yes", "no"},
			{"KARMA (this work)", "OOC & RECOMP", "none", "yes", "yes", "yes", "yes"},
		},
	}
	return t
}

// TableIVRow is one Megatron-LM configuration's evaluation.
type TableIVRow struct {
	Config model.TransformerConfig `json:"config"`
	// MPGPUs is the minimum model-parallel factor (Table IV "MP").
	MPGPUs int `json:"mp_gpus"`
	// HybridGPUs is the paper's MP+DP scale; Hybrid holds that result.
	HybridGPUs int          `json:"hybrid_gpus"`
	Hybrid     *dist.Result `json:"hybrid"`
	// KARMAGPUs is the paper's data-parallel KARMA scale (half the
	// hybrid); KARMA holds that result.
	KARMAGPUs int          `json:"karma_gpus"`
	KARMA     *dist.Result `json:"karma"`
	// Pipeline is the GPipe-style baseline at the hybrid's scale with
	// MPGPUs stages per replica; nil unless FamilyOptions.Pipeline.
	Pipeline *dist.Result `json:"pipeline,omitempty"`
}

// TableIV evaluates all five Megatron-LM configurations at the paper's
// GPU counts with the given backend: hybrid at {64,128,256,512,1024}x,
// KARMA at half. o.Ckpt applies activation checkpointing to the hybrid
// shards (Megatron-LM's own training regime), o.Precision selects the
// training regime, and o.Pipeline adds the pipeline-parallel family at
// the hybrid's scale.
func TableIV(cl hw.Cluster, ev dist.Evaluator, o FamilyOptions) ([]TableIVRow, error) {
	cfgs := model.MegatronConfigs()
	hybridGPUs := []int{64, 128, 256, 512, 1024}
	karmaGPUs := []int{32, 64, 128, 256, 512}
	const perReplicaBatch = 4
	methods := 2
	if o.Pipeline {
		methods = 3
	}
	cells, err := runGrid(o.Workers, len(cfgs), methods, func(ri, mi int) (*dist.Result, error) {
		cfg, mp := cfgs[ri], 1<<ri
		switch mi {
		case 0:
			return ev.MegatronHybrid(cfg, cl, mp, hybridGPUs[ri], perReplicaBatch, openWTSamples, o.hybrid(false))
		case 1:
			return ev.KARMADataParallel(dist.CachedTransformer(cfg), cl, karmaGPUs[ri], perReplicaBatch, openWTSamples, o.karma())
		default: // pipeline
			return ev.Pipeline(cfg, cl, mp, hybridGPUs[ri], perReplicaBatch, o.micro(perReplicaBatch), openWTSamples, o.hybrid(true))
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]TableIVRow, len(cfgs))
	for i, cfg := range cfgs {
		rows[i] = TableIVRow{
			Config: cfg, MPGPUs: 1 << i,
			HybridGPUs: hybridGPUs[i], Hybrid: cells[i][0],
			KARMAGPUs: karmaGPUs[i], KARMA: cells[i][1],
		}
		if o.Pipeline {
			rows[i].Pipeline = cells[i][2]
		}
	}
	return rows, nil
}

// Table renders Table IV. The paper's zero-shot perplexity column is not
// re-measurable without OpenWebText and full training runs; the
// equivalence experiment (§IV-D reproduction) substitutes for it.
func TableIVTable(rows []TableIVRow) *Table {
	withPipe := len(rows) > 0 && rows[0].Pipeline != nil
	headers := []string{
		"H", "A", "L", "P", "MP", "MP+DP gpus", "hybrid perf (iter/s)", "ckpt", "karma gpus", "karma perf (iter/s)",
	}
	if withPipe {
		headers = append(headers, "pipeline perf (iter/s)")
	}
	t := &Table{
		ID:      "table4",
		Title:   "data-parallel KARMA configurations and performance for Megatron-LM",
		Headers: headers,
	}
	for _, r := range rows {
		hybrid := "-"
		if r.Hybrid.Feasible {
			hybrid = fmt.Sprintf("%.3f", r.Hybrid.IterPerSec)
		}
		ckpt := "off"
		if r.Hybrid.Ckpt {
			ckpt = "on"
		}
		karma := "-"
		if r.KARMA.Feasible {
			karma = fmt.Sprintf("%.3f", r.KARMA.IterPerSec)
		}
		cells := []string{
			fmt.Sprintf("%d", r.Config.Hidden),
			fmt.Sprintf("%d", r.Config.Heads),
			fmt.Sprintf("%d", r.Config.Layers),
			fmt.Sprintf("%.1fB", float64(r.Config.Params())/1e9),
			fmt.Sprintf("%d", r.MPGPUs),
			fmt.Sprintf("%d", r.HybridGPUs),
			hybrid,
			ckpt,
			fmt.Sprintf("%d", r.KARMAGPUs),
			karma,
		}
		if withPipe {
			pipe := "-"
			if r.Pipeline != nil && r.Pipeline.Feasible {
				pipe = fmt.Sprintf("%.3f", r.Pipeline.IterPerSec)
			}
			cells = append(cells, pipe)
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Notes = append(t.Notes,
		"PPL column omitted: requires OpenWebText training to convergence; see the equivalence experiment (EXPERIMENTS.md)")
	return t
}

// TableVRow is one global-batch scaling point of Table V.
type TableVRow struct {
	GlobalBatch int          `json:"global_batch"`
	DP          *dist.Result `json:"dp"`    // data parallel: more GPUs, fixed per-GPU batch
	KARMA       *dist.Result `json:"karma"` // KARMA: fixed GPUs, growing per-GPU batch
}

// TableVModel evaluates one model's cost/performance sweep with the
// given backend: data parallelism scales GPUs at the memory-capacity
// batch; KARMA holds 100 GPUs and grows the per-GPU batch out-of-core.
// workers bounds the grid fan-out (sweep.Workers semantics).
func TableVModel(cl hw.Cluster, name string, capacityBatch int, steps int, samples int, ev dist.Evaluator, workers int) ([]TableVRow, error) {
	g := buildGraph(name)
	const karmaGPUs = 100
	cells, err := runGrid(workers, steps, 2, func(ri, mi int) (*dist.Result, error) {
		i := ri + 1
		if mi == 0 {
			return ev.DataParallel(g, cl, karmaGPUs*i, capacityBatch, samples)
		}
		return ev.KARMADataParallel(g, cl, karmaGPUs, capacityBatch*i, samples, dist.KARMAOptions{})
	})
	if err != nil {
		return nil, err
	}
	rows := make([]TableVRow, steps)
	for ri := range rows {
		rows[ri] = TableVRow{
			GlobalBatch: capacityBatch * karmaGPUs * (ri + 1),
			DP:          cells[ri][0],
			KARMA:       cells[ri][1],
		}
	}
	return rows, nil
}

// TableV runs both Table V models: ResNet-50 (12.8K..76.8K samples) and
// ResNet-200 (400..2,400 samples). workers bounds each model's grid
// fan-out.
func TableV(cl hw.Cluster, ev dist.Evaluator, workers int) (map[string][]TableVRow, error) {
	out := map[string][]TableVRow{}
	r50, err := TableVModel(cl, "resnet50", 128, 6, 1_280_000, ev, workers)
	if err != nil {
		return nil, err
	}
	out["resnet50"] = r50
	r200, err := TableVModel(cl, "resnet200", 4, 6, 1_280_000, ev, workers)
	if err != nil {
		return nil, err
	}
	out["resnet200"] = r200
	return out, nil
}

// TableVTable renders one model's sweep with cost/performance normalized
// to the first row (the paper's $/P metric).
func TableVTable(name string, rows []TableVRow) *Table {
	t := &Table{
		ID:    "table5-" + name,
		Title: fmt.Sprintf("cost/performance normalized to the first row, %s", name),
		Headers: []string{
			"global batch", "dp gpus", "dp $/P", "karma gpus", "karma $/P",
		},
	}
	var dpBase, kmBase float64
	for i, r := range rows {
		if i == 0 {
			dpBase, kmBase = r.DP.CostPerf, r.KARMA.CostPerf
		}
		dpCell, kmCell := "-", "-"
		if r.DP.Feasible && dpBase > 0 {
			dpCell = fmt.Sprintf("%.3f", r.DP.CostPerf/dpBase)
		}
		if r.KARMA.Feasible && kmBase > 0 {
			kmCell = fmt.Sprintf("%.3f", r.KARMA.CostPerf/kmBase)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.GlobalBatch),
			fmt.Sprintf("%d", r.DP.GPUs),
			dpCell,
			fmt.Sprintf("%d", r.KARMA.GPUs),
			kmCell,
		})
	}
	t.Notes = append(t.Notes,
		"DP adds GPUs at the capacity batch; KARMA holds GPUs and grows the batch out-of-core")
	return t
}
