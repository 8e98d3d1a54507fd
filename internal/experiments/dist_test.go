package experiments

import (
	"reflect"
	"testing"

	"karma/internal/dist"
	"karma/internal/flight"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

func TestFigure8Megatron8B(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale sweep in -short mode")
	}
	cl := hw.ABCI()
	panel, err := Figure8Megatron(cl, 4, []int{512, 1024, 2048}, dist.Analytic{}, FamilyOptions{Ckpt: true})
	if err != nil {
		t.Fatalf("Figure8Megatron: %v", err)
	}
	if len(panel.Rows) != 3 {
		t.Fatalf("rows = %d", len(panel.Rows))
	}
	for _, row := range panel.Rows {
		for _, m := range panel.Methods {
			r := row.Results[m]
			if r == nil || !r.Feasible {
				t.Fatalf("%s at %d GPUs infeasible: %v", m, row.GPUs, r)
			}
		}
		// Optimized exchange never loses to the plain hybrid.
		if row.Results["mp+dp-opt"].EpochTime > row.Results["mp+dp"].EpochTime {
			t.Errorf("%d GPUs: optimized exchange slower than plain", row.GPUs)
		}
	}
	// The Fig. 8 headline at parity: KARMA DP beats the hybrid at 2,048.
	last := panel.Rows[len(panel.Rows)-1]
	if last.Results["karma-dp"].EpochTime >= last.Results["mp+dp"].EpochTime {
		t.Errorf("at 2048 GPUs KARMA (%v) should beat MP+DP (%v)",
			last.Results["karma-dp"].EpochTime, last.Results["mp+dp"].EpochTime)
	}
	// More GPUs shorten KARMA's epoch (strong scaling holds).
	if panel.Rows[0].Results["karma-dp"].EpochTime <= last.Results["karma-dp"].EpochTime {
		t.Error("KARMA epoch should shrink with more GPUs")
	}
	tab := panel.Table()
	if len(tab.Rows) != 3 {
		t.Error("fig8 table rows mismatch")
	}
}

func TestFigure8Turing(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale sweep in -short mode")
	}
	cl := hw.ABCI()
	panel, err := Figure8Turing(cl, []int{512, 1024, 2048}, dist.Analytic{}, FamilyOptions{Ckpt: true})
	if err != nil {
		t.Fatalf("Figure8Turing: %v", err)
	}
	for _, row := range panel.Rows {
		zero := row.Results["zero"]
		karma := row.Results["karma-dp"]
		combo := row.Results["zero+karma"]
		if !zero.Feasible || !karma.Feasible || !combo.Feasible {
			t.Fatalf("%d GPUs: infeasible result", row.GPUs)
		}
		// Paper: ZeRO+KARMA improves on plain KARMA (1.35x over ZeRO at
		// scale; we assert the ordering combo <= karma).
		if combo.EpochTime > karma.EpochTime {
			t.Errorf("%d GPUs: ZeRO+KARMA (%v) slower than KARMA (%v)",
				row.GPUs, combo.EpochTime, karma.EpochTime)
		}
	}
}

// TestZeROBestConfigTuning: the deployment rule behind the calibrated
// right panel — with checkpointing the ZeRO reference drops below the
// shipped MP=16 (narrower groups span fewer of ABCI's 4-GPU nodes) and
// runs a materially larger global batch than the naive per-GPU parity;
// without checkpointing only MP=16 fits and the rule degenerates to the
// plain capacity sweep.
func TestZeROBestConfigTuning(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity sweep in -short mode")
	}
	cl := hw.ABCI()
	cfg := model.TuringNLG()
	ev := dist.Analytic{}
	mp, batch, best, err := ZeROBestConfig(cfg, cl, 512, ev, FamilyOptions{Ckpt: true})
	if err != nil {
		t.Fatalf("ZeROBestConfig: %v", err)
	}
	if !best.Feasible {
		t.Fatalf("checkpointed ZeRO must be feasible at 512 GPUs: %s", best.Reason)
	}
	if mp >= 16 {
		t.Errorf("checkpointing should admit a narrower MP than 16, got %d", mp)
	}
	if batch*(512/mp) != best.GlobalBatch {
		t.Errorf("global batch %d inconsistent with mp=%d batch=%d", best.GlobalBatch, mp, batch)
	}
	mpPlain, _, plain, err := ZeROBestConfig(cfg, cl, 512, ev, FamilyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mpPlain != 16 {
		t.Errorf("without checkpointing only MP=16 fits, got %d", mpPlain)
	}
	if plain.Feasible && plain.EpochTime < best.EpochTime {
		t.Errorf("tuned checkpointed config (%v) lost to the unchecked one (%v)", best.EpochTime, plain.EpochTime)
	}
}

func TestTableIVPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("five-config sweep in -short mode")
	}
	cl := hw.ABCI()
	rows, err := TableIV(cl, dist.Analytic{}, FamilyOptions{Ckpt: true})
	if err != nil {
		t.Fatalf("TableIV: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Hybrid.Feasible {
			t.Errorf("%s: hybrid infeasible: %s", r.Config.Name, r.Hybrid.Reason)
		}
		if !r.KARMA.Feasible {
			t.Errorf("%s: KARMA infeasible: %s", r.Config.Name, r.KARMA.Reason)
		}
		// Table IV shape: KARMA achieves the run with HALF the GPUs at a
		// lower-but-comparable iteration rate (paper: e.g. 8.4 vs 6.3
		// iter/s for 8.3B). Comparable = within 10x.
		if r.Hybrid.Feasible && r.KARMA.Feasible {
			ratio := r.Hybrid.IterPerSec / r.KARMA.IterPerSec
			if ratio < 0.2 || ratio > 10 {
				t.Errorf("%s: hybrid/KARMA iter rate ratio %.2f out of plausible band",
					r.Config.Name, ratio)
			}
		}
	}
	tab := TableIVTable(rows)
	if len(tab.Rows) != 5 {
		t.Error("table IV render mismatch")
	}
}

func TestTableVCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("cost sweep in -short mode")
	}
	cl := hw.ABCI()
	all, err := TableV(cl, dist.Analytic{}, 0)
	if err != nil {
		t.Fatalf("TableV: %v", err)
	}
	for name, rows := range all {
		if len(rows) != 6 {
			t.Fatalf("%s: rows = %d", name, len(rows))
		}
		for i, r := range rows {
			if !r.DP.Feasible {
				t.Errorf("%s row %d: DP infeasible: %s", name, i, r.DP.Reason)
			}
			if !r.KARMA.Feasible {
				t.Errorf("%s row %d: KARMA infeasible: %s", name, i, r.KARMA.Reason)
			}
		}
		// Table V shape: at the first out-of-core step KARMA's normalized
		// $/P stays close to DP's (within 25%); by the last step DP is
		// the cheaper way to scale (the crossover).
		dpBase, kmBase := rows[0].DP.CostPerf, rows[0].KARMA.CostPerf
		dp2, km2 := rows[1].DP.CostPerf/dpBase, rows[1].KARMA.CostPerf/kmBase
		if km2 > dp2*1.25 {
			t.Errorf("%s: first OOC step KARMA $/P %.3f vs DP %.3f — should be close", name, km2, dp2)
		}
		dp6, km6 := rows[5].DP.CostPerf/dpBase, rows[5].KARMA.CostPerf/kmBase
		if km6 < dp6 {
			t.Logf("%s: KARMA still cheaper at 6x (km=%.3f dp=%.3f)", name, km6, dp6)
		}
		tab := TableVTable(name, rows)
		if len(tab.Rows) != 6 {
			t.Error("table V render mismatch")
		}
	}
}

// TestRepeatPanelsHitPlannedCaches pins the cache contract: the panels
// name their transformers by value and build registry graphs through
// the dist graph cache, so an identical repeat of a panel pass on one
// planner-backed evaluator finds every graph, profile, shard schedule
// and partition search cached — no misses, no new entries in the shared
// or the planned caches — instead of filling them with dead copies.
func TestRepeatPanelsHitPlannedCaches(t *testing.T) {
	cl := hw.ABCI()
	pe := dist.NewPlanned()
	fo := FamilyOptions{Ckpt: true}
	pass := func() {
		if _, err := Figure8Megatron(cl, 2, []int{128, 256, 512}, pe, fo); err != nil {
			t.Fatalf("Figure8Megatron: %v", err)
		}
		if _, err := Figure8Turing(cl, []int{512, 1024}, pe, fo); err != nil {
			t.Fatalf("Figure8Turing: %v", err)
		}
		if _, err := TableIV(cl, pe, fo); err != nil {
			t.Fatalf("TableIV: %v", err)
		}
		if _, err := TableV(cl, pe, 0); err != nil {
			t.Fatalf("TableV: %v", err)
		}
		if _, err := TopologySweep(cl, 512, TopoLadder(), pe, fo); err != nil {
			t.Fatalf("TopologySweep: %v", err)
		}
		if _, err := Ablations(hw.ABCINode(), cl, pe, 0); err != nil {
			t.Fatalf("Ablations: %v", err)
		}
	}
	pass()
	first, firstShared := pe.CacheStats(), dist.SharedCacheStats()
	if first.Misses == 0 || firstShared.Misses == 0 {
		t.Fatal("the first pass planned nothing; the test no longer exercises the caches")
	}
	pass()
	second, secondShared := pe.CacheStats(), dist.SharedCacheStats()
	for _, c := range []struct {
		name          string
		first, second flight.Stats
	}{{"planned", first, second}, {"shared", firstShared, secondShared}} {
		if d := c.second.Misses - c.first.Misses; d != 0 {
			t.Errorf("repeat pass added %d %s-cache misses, want 0", d, c.name)
		}
		if d := c.second.Entries - c.first.Entries; d != 0 {
			t.Errorf("repeat pass added %d %s-cache entries, want 0", d, c.name)
		}
	}
}

// TestFig8ConfigsReproduceResults pins that each Fig. 8 cell records the
// configuration behind its number: evaluating Configs[m] again (on a
// fresh evaluator) reproduces Results[m] exactly, capacity-searched
// cells (ZeRO, the Turing pipeline) included, on both backends.
func TestFig8ConfigsReproduceResults(t *testing.T) {
	cl := hw.ABCI()
	for _, backend := range dist.BackendNames() {
		for _, fo := range []FamilyOptions{
			{Ckpt: true, Precision: tensor.MixedFP16, Pipeline: true},
			{Pipeline: true},
		} {
			ev, _ := dist.ByName(backend)
			mega, err := Figure8Megatron(cl, 2, []int{128, 512}, ev, fo)
			if err != nil {
				t.Fatal(err)
			}
			turing, err := Figure8Turing(cl, []int{512, 2048}, ev, fo)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := dist.ByName(backend)
			for _, p := range []*Fig8Panel{mega, turing} {
				for _, row := range p.Rows {
					for _, m := range p.Methods {
						got, err := dist.Evaluate(fresh, row.Configs[m])
						if err != nil {
							t.Fatalf("%s %s %s@%d: %v", backend, p.Model, m, row.GPUs, err)
						}
						if !reflect.DeepEqual(got, row.Results[m]) {
							t.Errorf("%s %s %s@%d (%+v): config evaluates to %+v, cell holds %+v",
								backend, p.Model, m, row.GPUs, fo, got, row.Results[m])
						}
					}
				}
			}
		}
	}
}
