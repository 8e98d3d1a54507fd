package experiments

import (
	"fmt"

	"karma/internal/baseline"
	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/sweep"
)

// AblationResult is one design-choice study (DESIGN.md A1-A6).
type AblationResult struct {
	ID       string
	Question string
	Metric   string
	Value    float64
}

// Ablations runs all six studies on small fixed workloads; the
// cluster-scale studies (A3, A4) use the given backend. The shared
// ResNet-50 profiles build up front (A1/A2/A5+A6 each reuse one), then
// the six studies fan out under the worker bound; results keep the
// A1..A6 order regardless of completion order, with a study that is
// infeasible on the workload dropped as before.
func Ablations(node hw.Node, cl hw.Cluster, ev dist.Evaluator, workers int) ([]AblationResult, error) {
	batches := []int{256, 384, 512}
	profs, err := sweep.Map(workers, len(batches), func(i int) (*profiler.Profile, error) {
		return profiler.New(model.ResNet50(), node, profiler.Options{Batch: batches[i]})
	})
	if err != nil {
		return nil, err
	}
	p256, p384, p512 := profs[0], profs[1], profs[2]
	cfg := model.MegatronConfigs()[2]
	g := dist.CachedTransformer(cfg)

	studies := []func() (*AblationResult, error){
		func() (*AblationResult, error) {
			// A1: capacity-based vs eager swap schedule (recompute disabled).
			k, err := baseline.Run(baseline.KARMA, p256)
			if err != nil {
				return nil, err
			}
			v, err := baseline.Run(baseline.VDNNPP, p256)
			if err != nil {
				return nil, err
			}
			if !k.Feasible || !v.Feasible {
				return nil, nil
			}
			return &AblationResult{
				ID: "A1", Question: "capacity-based vs eager swap schedule",
				Metric: "x speedup", Value: k.Throughput / v.Throughput,
			}, nil
		},
		func() (*AblationResult, error) {
			// A2: recompute interleave on/off.
			on, err := baseline.Run(baseline.KARMARecompute, p512)
			if err != nil {
				return nil, err
			}
			off, err := baseline.Run(baseline.KARMA, p512)
			if err != nil {
				return nil, err
			}
			if !on.Feasible || !off.Feasible {
				return nil, nil
			}
			return &AblationResult{
				ID: "A2", Question: "recompute interleave on vs off",
				Metric: "x speedup", Value: on.Throughput / off.Throughput,
			}, nil
		},
		func() (*AblationResult, error) {
			// A3: phased vs bulk gradient exchange (Megatron-2.5B hybrid,
			// under the activation checkpointing its shard needs at batch 4).
			phased, err := ev.MegatronHybrid(cfg, cl, 4, 512, 4, openWTSamples, dist.HybridOptions{Phased: true, Checkpoint: true})
			if err != nil {
				return nil, err
			}
			bulk, err := ev.MegatronHybrid(cfg, cl, 4, 512, 4, openWTSamples, dist.HybridOptions{Checkpoint: true})
			if err != nil {
				return nil, err
			}
			if !phased.Feasible || !bulk.Feasible {
				return nil, nil
			}
			return &AblationResult{
				ID: "A3", Question: "phased vs bulk gradient exchange",
				Metric: "x speedup", Value: float64(bulk.IterTime) / float64(phased.IterTime),
			}, nil
		},
		func() (*AblationResult, error) {
			// A4: CPU-side vs move-back-to-GPU weight update.
			host, err := ev.KARMADataParallel(g, cl, 256, 4, openWTSamples, dist.KARMAOptions{})
			if err != nil {
				return nil, err
			}
			dev, err := ev.KARMADataParallel(g, cl, 256, 4, openWTSamples, dist.KARMAOptions{UpdateOnDevice: true})
			if err != nil {
				return nil, err
			}
			if !host.Feasible || !dev.Feasible {
				return nil, nil
			}
			return &AblationResult{
				ID: "A4", Question: "GPU-side update overhead vs CPU-side",
				Metric: "x slowdown", Value: float64(dev.IterTime) / float64(host.IterTime),
			}, nil
		},
		func() (*AblationResult, error) {
			// A5: Opt-1 solver backends.
			sb, err := planThroughput(p384, karma.SolverBalanced)
			if err != nil {
				return nil, err
			}
			sa, err := planThroughput(p384, karma.SolverACO)
			if err != nil {
				return nil, err
			}
			return &AblationResult{
				ID: "A5", Question: "balanced/hill-climb vs ant-colony Opt-1",
				Metric: "aco/balanced throughput ratio", Value: sa / sb,
			}, nil
		},
		func() (*AblationResult, error) {
			// A6: blocking granularity.
			coarse, err := planThroughputMax(p384, 4)
			if err != nil {
				return nil, err
			}
			fine, err := planThroughputMax(p384, 32)
			if err != nil {
				return nil, err
			}
			return &AblationResult{
				ID: "A6", Question: "fine (k<=32) vs coarse (k<=4) blocking",
				Metric: "x speedup", Value: fine / coarse,
			}, nil
		},
	}
	results, err := sweep.Map(workers, len(studies), func(i int) (*AblationResult, error) {
		return studies[i]()
	})
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out, nil
}

func planThroughput(p *profiler.Profile, s karma.Solver) (float64, error) {
	sched, err := karma.Plan(p, karma.Options{Solver: s, Seed: 7})
	if err != nil {
		return 0, err
	}
	rep, err := karma.Simulate(sched)
	if err != nil {
		return 0, err
	}
	return rep.Throughput, nil
}

func planThroughputMax(p *profiler.Profile, maxBlocks int) (float64, error) {
	sched, err := karma.Plan(p, karma.Options{MaxBlocks: maxBlocks})
	if err != nil {
		return 0, err
	}
	rep, err := karma.Simulate(sched)
	if err != nil {
		return 0, err
	}
	return rep.Throughput, nil
}

// AblationTable renders the studies.
func AblationTable(rs []AblationResult) *Table {
	t := &Table{
		ID:      "ablations",
		Title:   "design-choice ablations (DESIGN.md A1-A6)",
		Headers: []string{"id", "question", "metric", "value"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.ID, r.Question, r.Metric, fmt.Sprintf("%.3f", r.Value),
		})
	}
	return t
}
