package experiments

import (
	"fmt"

	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/topo"
)

// This file is the topology sensitivity panel: the Fig. 8 right-panel
// trio (tuned ZeRO, data-parallel KARMA, ZeRO+KARMA) re-evaluated under
// a ladder of interconnect models — the scenario axis the paper's single
// machine could not sweep. The flat row reproduces the calibrated Fig. 8
// numbers exactly (the topo engine's Flat equivalence); the abci row
// routes every collective over Table II's 2-NIC rail-optimized fat tree;
// the fattree rows oversubscribe its leaf uplinks cloud-style.

// TopoLadder returns the interconnect models the sensitivity panel
// sweeps: the seed's flat contended ring, the paper's ABCI fabric, and
// 2:1 / 4:1 oversubscribed fat trees. The zero topology means "flat"
// (the cluster derives it from NetBW).
func TopoLadder() []topo.Topology {
	return []topo.Topology{{}, topo.ABCI(), topo.FatTree(2), topo.FatTree(4)}
}

// topoName renders a ladder entry for table rows and flags.
func topoName(t topo.Topology) string {
	if t.IsZero() {
		return "flat"
	}
	return t.Name
}

// TopoRow is one interconnect model's evaluation of the Turing-NLG trio.
type TopoRow struct {
	// Topo names the interconnect model ("flat", "abci", "fattree:2"...).
	Topo string `json:"topo"`
	// ZeRO is the tuned reference (best MP, capacity batch); KARMA the
	// data-parallel run at per-GPU parity; Combo ZeRO+KARMA.
	ZeRO  *dist.Result `json:"zero"`
	KARMA *dist.Result `json:"karma"`
	Combo *dist.Result `json:"combo"`
	// Ratio is the ZeRO/Combo epoch ratio — the Fig. 8 calibration
	// headline this panel tracks across fabrics.
	Ratio float64 `json:"ratio,omitempty"`
}

// TopologySweep evaluates the Fig. 8 right-panel methods for the 17B
// Turing-NLG at one GPU count under each interconnect model, using the
// given evaluator backend. The trio matches Figure8Turing so the flat
// row is comparable against the calibrated panel.
func TopologySweep(cl hw.Cluster, gpus int, topos []topo.Topology, ev dist.Evaluator, o FamilyOptions) ([]TopoRow, error) {
	cfg := model.TuringNLG()
	const perReplicaBatch = 2 // Figure8Turing's per-GPU parity batch
	g := dist.CachedTransformer(cfg)
	clusters := make([]hw.Cluster, len(topos))
	for i, tp := range topos {
		clusters[i] = cl.WithTopology(tp)
	}
	cells, err := runGrid(o.Workers, len(topos), 3, func(ri, mi int) (*dist.Result, error) {
		tcl := clusters[ri]
		var r *dist.Result
		var err error
		switch mi {
		case 0:
			_, _, r, err = ZeROBestConfig(cfg, tcl, gpus, ev, o)
		case 1:
			r, err = ev.KARMADataParallel(g, tcl, gpus, perReplicaBatch, openWTSamples, o.karma())
		default:
			r, err = ev.KARMADataParallel(g, tcl, gpus, perReplicaBatch, openWTSamples,
				dist.KARMAOptions{ZeROShard: true, Precision: o.Precision})
		}
		if err != nil {
			return nil, fmt.Errorf("topo %s: %w", topoName(topos[ri]), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]TopoRow, len(topos))
	for ri, tp := range topos {
		zero, karma, combo := cells[ri][0], cells[ri][1], cells[ri][2]
		rows[ri] = TopoRow{Topo: topoName(tp), ZeRO: zero, KARMA: karma, Combo: combo}
		if zero.Feasible && combo.Feasible {
			rows[ri].Ratio = float64(zero.EpochTime) / float64(combo.EpochTime)
		}
	}
	return rows, nil
}

// TopoTable renders the sensitivity panel: epoch hours per method and
// the ZeRO/ZeRO+KARMA ratio per interconnect model.
func TopoTable(rows []TopoRow, gpus int, backend string) *Table {
	t := &Table{
		ID:      "topo-sensitivity",
		Title:   fmt.Sprintf("interconnect sensitivity, Turing-NLG 17B at %d GPUs (%s backend)", gpus, backend),
		Headers: []string{"topology", "zero", "karma-dp", "zero+karma", "zero/combo"},
	}
	hours := func(r *dist.Result) string {
		if r == nil || !r.Feasible {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(r.EpochTime)/3600)
	}
	for _, row := range rows {
		ratio := "-"
		if row.Ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", row.Ratio)
		}
		t.Rows = append(t.Rows, []string{row.Topo, hours(row.ZeRO), hours(row.KARMA), hours(row.Combo), ratio})
	}
	t.Notes = append(t.Notes,
		"flat reproduces the seed's single contended ring; abci is Table II's 2-NIC rail-optimized fat tree;",
		"fattree:<r> oversubscribes its leaf uplinks r:1 (cloud-style); contention divides each node's NIC",
		"bandwidth among its concurrent shard collectives.")
	return t
}
