package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/trace"
)

// openWTSamples mirrors the experiment panels' epoch sample count.
const openWTSamples = 7_200_000

// turingPanel marks Figure8Turing rows for exportWinner (the Megatron
// panels pass their Table IV config index instead).
const turingPanel = -1

// writePanelTraces exports the fastest feasible method of every panel
// row as a Chrome trace under dir (karma-bench -trace-out). The winner's
// configuration is re-derived from the panel's construction rules, and
// the schedule always comes from the planned backend — the export is the
// planner's timeline by definition, whichever backend rendered the
// table.
func writePanelTraces(dir string, panel *experiments.Fig8Panel, cfgIdx int, cl hw.Cluster, pe *dist.Planned, fo experiments.FamilyOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, row := range panel.Rows {
		winner := ""
		var best *dist.Result
		for _, m := range panel.Methods {
			r := row.Results[m]
			if r != nil && r.Feasible && (best == nil || r.EpochTime < best.EpochTime) {
				winner, best = m, r
			}
		}
		if winner == "" {
			continue // every method infeasible at this scale
		}
		ex, err := exportWinner(pe, winner, cfgIdx, cl, row.GPUs, fo)
		if err != nil {
			return fmt.Errorf("trace %s@%d: %w", winner, row.GPUs, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, trace.Collect(ex.Compiled.Ops, ex.Timeline)); err != nil {
			return err
		}
		name := fmt.Sprintf("fig8-%s-%dgpus-%s.json", panel.Model, row.GPUs, winner)
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// benchMicro mirrors FamilyOptions.micro (unexported): the pipeline
// micro-batch count, default 8, clamped to the per-replica batch.
func benchMicro(fo experiments.FamilyOptions, perReplicaBatch int) int {
	m := fo.PipelineMicro
	if m <= 0 {
		m = 8
	}
	if m > perReplicaBatch {
		m = perReplicaBatch
	}
	return m
}

// exportWinner re-derives one panel cell's configuration (the rules of
// Figure8Megatron / Figure8Turing) and exports its plan and timeline.
func exportWinner(pe *dist.Planned, method string, cfgIdx int, cl hw.Cluster, gpus int, fo experiments.FamilyOptions) (*dist.PlanExport, error) {
	ho := dist.HybridOptions{Checkpoint: fo.Ckpt, Precision: fo.Precision}
	ko := dist.KARMAOptions{Precision: fo.Precision}
	if cfgIdx != turingPanel {
		cfg := model.MegatronConfigs()[cfgIdx]
		mp := 1 << cfgIdx // Table IV: MP = 1,2,4,8,16
		const batch = 4
		switch method {
		case "mp+dp":
			return pe.ExportHybrid(cfg, cl, mp, gpus, batch, openWTSamples, false, ho)
		case "mp+dp-opt":
			ho.Phased = true
			return pe.ExportHybrid(cfg, cl, mp, gpus, batch, openWTSamples, false, ho)
		case "karma-dp":
			return pe.ExportKARMA(dist.CachedTransformer(cfg), cl, gpus, batch, openWTSamples, ko)
		case "pipeline":
			ho.Phased = true
			return pe.ExportPipeline(cfg, cl, mp, gpus, batch, benchMicro(fo, batch), openWTSamples, ho)
		}
		return nil, fmt.Errorf("unknown megatron panel method %q", method)
	}
	cfg := model.TuringNLG()
	const batch = 2
	const pipeStages = 16
	switch method {
	case "zero":
		mp, zbatch, _, err := experiments.ZeROBestConfig(cfg, cl, gpus, pe, fo)
		if err != nil {
			return nil, err
		}
		ho.Phased = true
		return pe.ExportHybrid(cfg, cl, mp, gpus, zbatch, openWTSamples, true, ho)
	case "karma-dp":
		return pe.ExportKARMA(dist.CachedTransformer(cfg), cl, gpus, batch, openWTSamples, ko)
	case "zero+karma":
		ko.ZeROShard = true
		return pe.ExportKARMA(dist.CachedTransformer(cfg), cl, gpus, batch, openWTSamples, ko)
	case "pipeline":
		ho.Phased = true
		micro := benchMicro(fo, batch*pipeStages) // capacity sweep floor
		pbatch, _, err := dist.PipelineCapacityBatch(cfg, cl, pipeStages, gpus, micro, openWTSamples, pe, ho)
		if err != nil {
			return nil, err
		}
		return pe.ExportPipeline(cfg, cl, pipeStages, gpus, pbatch, micro, openWTSamples, ho)
	}
	return nil, fmt.Errorf("unknown turing panel method %q", method)
}
