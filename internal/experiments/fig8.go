package experiments

import (
	"fmt"
	"strings"

	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/sweep"
	"karma/internal/tensor"
)

// openWTSamples is the OpenWebText sample count of Table III.
const openWTSamples = 7_200_000

// FamilyOptions configures the baseline families of the scaling panels
// and Table IV: the checkpointing regime and training precision thread
// through to every hybrid evaluation, and Pipeline adds the GPipe-style
// pipeline-parallel family as a fourth curve.
type FamilyOptions struct {
	// Ckpt enables activation checkpointing in the hybrid shards and
	// pipeline stages (the regime real deployments train in).
	Ckpt bool
	// Precision selects fp32 or mixed fp16-with-fp32-master training for
	// every family (dist.HybridOptions.Precision / KARMAOptions.Precision).
	Precision tensor.Precision
	// Pipeline adds the pipeline-parallel baseline to the panels, with
	// stage count matched to the panel's MP degree.
	Pipeline bool
	// PipelineMicro is the micro-batch count per pipeline iteration
	// (clamped to the per-replica batch). Zero means 8.
	PipelineMicro int
	// Workers bounds the goroutines fanning grid points across the panel
	// (sweep.Workers semantics: >= 1 is the bound, anything else means
	// runtime.NumCPU). Results are deterministic for every value: cells
	// land by grid index, not completion order, and the evaluators share
	// singleflight caches, so any worker count renders byte-identically.
	Workers int
}

func (o FamilyOptions) hybrid(phased bool) dist.HybridOptions {
	return dist.HybridOptions{Phased: phased, Checkpoint: o.Ckpt, Precision: o.Precision}
}

func (o FamilyOptions) karma() dist.KARMAOptions {
	return dist.KARMAOptions{Precision: o.Precision}
}

// micro returns the pipeline micro-batch count for a per-replica batch.
func (o FamilyOptions) micro(perReplicaBatch int) int {
	m := o.PipelineMicro
	if m <= 0 {
		m = 8
	}
	if m > perReplicaBatch {
		m = perReplicaBatch
	}
	return m
}

// Fig8Row is one GPU count of one Fig. 8 panel.
type Fig8Row struct {
	GPUs    int                     `json:"gpus"`
	Results map[string]*dist.Result `json:"results"` // keyed by method name
}

// Fig8Panel is one model's scaling sweep.
type Fig8Panel struct {
	Model   string    `json:"model"`
	Methods []string  `json:"methods"`
	Rows    []Fig8Row `json:"rows"`
}

// Figure8Megatron reproduces the left/middle panels: the MP+DP hybrid,
// the hybrid with the optimized (phased) gradient exchange, and
// data-parallel KARMA at GPU parity, all evaluated by ev. cfgIdx selects
// the Table IV configuration (2 = 2.5B, 4 = 8.3B); the per-replica batch
// and MP factor follow Table IV. o.Ckpt enables activation checkpointing
// in the hybrid shards — the regime Megatron-LM actually trains these
// configurations in, and the one the per-layer shard profile needs to
// fit Table IV's per-replica batch on a V100 — o.Precision selects the
// training regime, and o.Pipeline adds a GPipe-style pipeline curve with
// as many stages as the hybrid has MP ways.
func Figure8Megatron(cl hw.Cluster, cfgIdx int, gpusList []int, ev dist.Evaluator, o FamilyOptions) (*Fig8Panel, error) {
	cfgs := model.MegatronConfigs()
	if cfgIdx < 0 || cfgIdx >= len(cfgs) {
		return nil, fmt.Errorf("fig8: bad config index %d", cfgIdx)
	}
	cfg := cfgs[cfgIdx]
	mp := 1 << cfgIdx // Table IV: MP = 1,2,4,8,16
	const perReplicaBatch = 4
	g := dist.CachedTransformer(cfg)
	panel := &Fig8Panel{
		Model:   cfg.Name,
		Methods: []string{"mp+dp", "mp+dp-opt", "karma-dp"},
	}
	if o.Pipeline {
		panel.Methods = append(panel.Methods, "pipeline")
	}
	cells, err := runGrid(o.Workers, len(gpusList), len(panel.Methods), func(ri, mi int) (*dist.Result, error) {
		gpus := gpusList[ri]
		switch panel.Methods[mi] {
		case "mp+dp":
			return ev.MegatronHybrid(cfg, cl, mp, gpus, perReplicaBatch, openWTSamples, o.hybrid(false))
		case "mp+dp-opt":
			return ev.MegatronHybrid(cfg, cl, mp, gpus, perReplicaBatch, openWTSamples, o.hybrid(true))
		case "karma-dp":
			return ev.KARMADataParallel(g, cl, gpus, perReplicaBatch, openWTSamples, o.karma())
		default: // pipeline
			return ev.Pipeline(cfg, cl, mp, gpus, perReplicaBatch, o.micro(perReplicaBatch), openWTSamples, o.hybrid(true))
		}
	})
	if err != nil {
		return nil, err
	}
	panel.fill(gpusList, cells)
	return panel, nil
}

// runGrid evaluates a rows x methods grid under the worker bound,
// landing each cell by its grid index so any worker count yields the
// same cells; an error surfaces exactly as the serial row-major loop
// would report it (lowest grid index wins — sweep.Do's contract).
func runGrid(workers, rows, methods int, job func(ri, mi int) (*dist.Result, error)) ([][]*dist.Result, error) {
	out := make([][]*dist.Result, rows)
	for ri := range out {
		out[ri] = make([]*dist.Result, methods)
	}
	err := sweep.Do(workers, rows*methods, func(i int) error {
		ri, mi := i/methods, i%methods
		r, err := job(ri, mi)
		if err != nil {
			return err
		}
		out[ri][mi] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fill materializes the panel rows from the evaluated grid (serially:
// the Results maps are not written from sweep goroutines).
func (p *Fig8Panel) fill(gpusList []int, cells [][]*dist.Result) {
	for ri, gpus := range gpusList {
		row := Fig8Row{GPUs: gpus, Results: map[string]*dist.Result{}}
		for mi, m := range p.Methods {
			row.Results[m] = cells[ri][mi]
		}
		p.Rows = append(p.Rows, row)
	}
}

// ZeROCapacityBatch returns the largest power-of-two per-replica batch
// at which the ZeRO hybrid stays feasible on the cluster, together with
// its evaluation — the operational rule of the ZeRO baseline (maximize
// the per-GPU batch), and the "true global batch" calibration of the
// Fig. 8 right panel: comparing epoch times against an artificially
// small ZeRO batch inflates KARMA's advantage to ~4.5x where the paper
// reports ~1.35x. Under o.Precision == MixedFP16 the capacity batch is
// the fp16 one — the batch headroom the real Turing-NLG run had. When no
// batch fits, the batch-1 infeasible Result is returned so sweeps can
// render the cell; errors are reserved for invalid arguments.
func ZeROCapacityBatch(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus int, ev dist.Evaluator, o FamilyOptions) (int, *dist.Result, error) {
	ho := o.hybrid(true)
	batch := 1
	best, err := ev.ZeRO(cfg, cl, mp, gpus, batch, openWTSamples, ho)
	if err != nil {
		return 0, nil, err
	}
	for b := 2; best.Feasible && b <= 1<<12; b *= 2 {
		r, err := ev.ZeRO(cfg, cl, mp, gpus, b, openWTSamples, ho)
		if err != nil {
			return 0, nil, err
		}
		if !r.Feasible {
			break
		}
		batch, best = b, r
	}
	return batch, best, nil
}

// ZeROBestConfig tunes the ZeRO reference the way a deployment would: it
// sweeps the tensor-parallel degree over the powers of two up to
// Turing-NLG's shipped MP=16 (smaller MP groups span fewer of ABCI's
// 4-GPU nodes and pay cheaper blocking collectives, but need
// checkpointing to fit), takes each at its capacity batch, and keeps the
// fastest feasible epoch. Without checkpointing only MP=16 fits, which
// degenerates to ZeROCapacityBatch.
func ZeROBestConfig(cfg model.TransformerConfig, cl hw.Cluster, gpus int, ev dist.Evaluator, o FamilyOptions) (int, int, *dist.Result, error) {
	// The MP candidates evaluate in parallel (each capacity-batch sweep is
	// inherently serial — every doubling depends on the previous verdict —
	// but the degrees are independent); the winner is then picked in
	// ascending-MP order with strict improvement, exactly the serial
	// scan's tie-breaking.
	mps := []int{2, 4, 8, 16}
	type zcand struct {
		batch int
		r     *dist.Result
	}
	cands, err := sweep.Map(o.Workers, len(mps), func(i int) (zcand, error) {
		mp := mps[i]
		if gpus%mp != 0 || gpus/mp < 2 {
			return zcand{}, nil
		}
		batch, r, err := ZeROCapacityBatch(cfg, cl, mp, gpus, ev, o)
		return zcand{batch: batch, r: r}, err
	})
	if err != nil {
		return 0, 0, nil, err
	}
	var bestMP, bestBatch int
	var best *dist.Result
	for i, c := range cands {
		if c.r != nil && c.r.Feasible && (best == nil || c.r.EpochTime < best.EpochTime) {
			bestMP, bestBatch, best = mps[i], c.batch, c.r
		}
	}
	if best == nil {
		// Nothing fits at any degree: report the shipped MP=16 verdict.
		batch, r, err := ZeROCapacityBatch(cfg, cl, 16, gpus, ev, o)
		return 16, batch, r, err
	}
	return bestMP, bestBatch, best, nil
}

// Figure8Turing reproduces the right panel: ZeRO (hybrid reference, at
// its best MP and capacity batch — see ZeROBestConfig), data-parallel
// KARMA, and KARMA on top of ZeRO for the 17B Turing-NLG, all evaluated
// by ev. o.Ckpt applies activation checkpointing to the ZeRO baseline
// (the regime real ZeRO deployments train in; the calibrated panel),
// o.Precision runs every family at the chosen regime (the fp16 panel is
// the calibration toward the paper's ~1.35x ratio), and o.Pipeline adds
// a 16-stage GPipe curve at its own capacity batch.
func Figure8Turing(cl hw.Cluster, gpusList []int, ev dist.Evaluator, o FamilyOptions) (*Fig8Panel, error) {
	cfg := model.TuringNLG()
	const perReplicaBatch = 2
	const pipeStages = 16 // matches the shipped MP=16 device split
	g := dist.CachedTransformer(cfg)
	panel := &Fig8Panel{
		Model:   cfg.Name,
		Methods: []string{"zero", "karma-dp", "zero+karma"},
	}
	if o.Pipeline {
		panel.Methods = append(panel.Methods, "pipeline")
	}
	cells, err := runGrid(o.Workers, len(gpusList), len(panel.Methods), func(ri, mi int) (*dist.Result, error) {
		gpus := gpusList[ri]
		switch panel.Methods[mi] {
		case "zero":
			_, _, zero, err := ZeROBestConfig(cfg, cl, gpus, ev, o)
			return zero, err
		case "karma-dp":
			return ev.KARMADataParallel(g, cl, gpus, perReplicaBatch, openWTSamples, o.karma())
		case "zero+karma":
			return ev.KARMADataParallel(g, cl, gpus, perReplicaBatch, openWTSamples,
				dist.KARMAOptions{ZeROShard: true, Precision: o.Precision})
		default: // pipeline
			micro := o.micro(perReplicaBatch * pipeStages) // capacity sweep floor
			_, pipe, err := dist.PipelineCapacityBatch(cfg, cl, pipeStages, gpus, micro, openWTSamples, ev, o.hybrid(true))
			return pipe, err
		}
	})
	if err != nil {
		return nil, err
	}
	panel.fill(gpusList, cells)
	return panel, nil
}

// Table renders a panel as time-per-epoch hours (the figure's y-axis),
// with a column naming the methods that ran under activation
// checkpointing.
func (p *Fig8Panel) Table() *Table {
	t := &Table{
		ID:      "fig8-" + p.Model,
		Title:   fmt.Sprintf("time per epoch (hours), %s", p.Model),
		Headers: append(append([]string{"gpus"}, p.Methods...), "ckpt"),
	}
	for _, row := range p.Rows {
		cells := []string{fmt.Sprintf("%d", row.GPUs)}
		var ckpt []string
		for _, m := range p.Methods {
			r := row.Results[m]
			if r == nil || !r.Feasible {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.1f", float64(r.EpochTime)/3600))
			}
			if r != nil && r.Ckpt {
				ckpt = append(ckpt, m)
			}
		}
		if len(ckpt) == 0 {
			cells = append(cells, "-")
		} else {
			cells = append(cells, strings.Join(ckpt, ","))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Notes = append(t.Notes,
		"KARMA's global mini-batch is the MP factor times larger at parity (paper Fig. 8 note)")
	return t
}
