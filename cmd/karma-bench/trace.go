package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/trace"
)

// writePanelTraces exports the fastest feasible method of every panel
// row as a Chrome trace under dir (karma-bench -trace-out). The export
// replays the configuration the panel recorded behind the winning cell
// (Fig8Row.Configs), and the schedule always comes from the planned
// backend — the export is the planner's timeline by definition,
// whichever backend rendered the table.
func writePanelTraces(dir string, panel *experiments.Fig8Panel, pe *dist.Planned) error {
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
		ex, err := pe.Export(row.Configs[winner])
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
