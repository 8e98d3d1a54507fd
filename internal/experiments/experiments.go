// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated substrate: Fig. 5 (single-GPU
// throughput vs batch), Fig. 6 (backward-phase stall profiles), Fig. 7
// (best blocking), Fig. 8 (multi-node scaling), Table I (capability
// matrix), Table IV (Megatron-LM configurations) and Table V
// (cost/performance). The same generators back cmd/karma-bench, the test
// suite, and the benchmark harness, so what is asserted is what is
// printed.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/profiler"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	// Notes carry substitution caveats (DESIGN.md reproduction strategy).
	Notes []string
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return sb.String()
}

// Workload describes one Fig. 5 panel: a model and its batch-size grid.
// Only the first batch size fits in device memory, as in the paper.
type Workload struct {
	Model   string
	Batches []int
	// MaxOpen is the segmentation bound (U-Net needs loose cuts).
	MaxOpen int
}

// Fig5Workloads returns the six panels of Fig. 5 with the paper's batch
// grids.
func Fig5Workloads() []Workload {
	return []Workload{
		{Model: "resnet50", Batches: []int{128, 256, 384, 512, 640, 768}},
		{Model: "vgg16", Batches: []int{32, 64, 96, 128, 160}},
		{Model: "resnet200", Batches: []int{4, 8, 12, 16, 20, 24}},
		{Model: "wrn-28-10", Batches: []int{256, 512, 768, 1024, 1280}},
		{Model: "resnet1001", Batches: []int{64, 128, 192, 256, 320}},
		{Model: "unet", Batches: []int{8, 16, 24, 32, 40}, MaxOpen: 5},
	}
}

// CalibratedOverhead returns the activation-overhead factor standing in
// for the paper's empirical memory profiling (§III-D): the factor is
// fitted so that the workload's first batch size trains in-core and the
// second does not — the feasibility boundary Fig. 5 states. A factor of 1
// is used whenever the raw footprint already matches the boundary.
func CalibratedOverhead(w Workload, node hw.Node) (float64, error) {
	g, err := model.Build(w.Model)
	if err != nil {
		return 0, err
	}
	if len(w.Batches) < 2 {
		return 1, nil
	}
	p1, err := profiler.New(g, node, profiler.Options{Batch: w.Batches[0], MaxOpen: w.MaxOpen})
	if err != nil {
		return 0, err
	}
	p2, err := profiler.New(g, node, profiler.Options{Batch: w.Batches[1], MaxOpen: w.MaxOpen})
	if err != nil {
		return 0, err
	}
	usable := float64(node.Device.UsableMem())
	weights := 2 * float64(p1.TotalWeightBytes)
	// Bounds on the factor: fit batch 1, not batch 2.
	fmax := (usable - weights) / float64(p1.TotalActBytes)
	fmin := (usable - weights) / float64(p2.TotalActBytes)
	if fmax <= 1 {
		// Even raw footprints exceed memory at the first batch: the model
		// is OOC from the start; no calibration can help — use 1.
		return 1, nil
	}
	if fmin < 1 {
		return 1, nil // boundary already correct at factor 1
	}
	// Midpoint (geometric) keeps comfortable margins on both sides.
	f := fmin * 1.2
	if f > fmax {
		f = (fmin + fmax) / 2
	}
	return f, nil
}

// ProfileWorkload profiles a workload at one batch size with the
// calibrated overhead.
func ProfileWorkload(w Workload, node hw.Node, batch int) (*profiler.Profile, error) {
	g, err := model.Build(w.Model)
	if err != nil {
		return nil, err
	}
	f, err := CalibratedOverhead(w, node)
	if err != nil {
		return nil, err
	}
	return profiler.New(g, node, profiler.Options{
		Batch: batch, MaxOpen: w.MaxOpen, ActOverhead: f,
	})
}
