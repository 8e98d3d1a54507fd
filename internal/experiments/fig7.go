package experiments

import (
	"fmt"

	"karma/internal/baseline"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/unit"
)

// Fig7Result carries the best blocking KARMA finds for ResNet-50 at
// batch 512 (the paper's Fig. 7) plus the stall-reduction comparison the
// paper quotes (43% vs SuperNeurons, 37% vs vDNN++).
type Fig7Result struct {
	Schedule *karma.Schedule
	Plan     string
	// StallReduction maps a baseline to 1 - karmaStall/baselineStall.
	StallReduction map[baseline.Method]float64
}

// Figure7 computes the blocking and the stall reductions.
func Figure7(node hw.Node) (*Fig7Result, error) {
	w := Workload{Model: "resnet50", Batches: []int{128, 256}}
	p, err := ProfileWorkload(w, node, 512)
	if err != nil {
		return nil, err
	}
	s, err := karma.Plan(p, karma.Options{})
	if err != nil {
		return nil, err
	}
	rep, err := karma.Simulate(s)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{
		Schedule:       s,
		Plan:           rep.Plan.String(),
		StallReduction: map[baseline.Method]float64{},
	}
	for _, m := range []baseline.Method{baseline.SuperNeurons, baseline.VDNNPP} {
		r, err := baseline.Run(m, p)
		if err != nil {
			return nil, err
		}
		if !r.Feasible || r.ComputeStall <= 0 {
			continue
		}
		res.StallReduction[m] = 1 - float64(rep.ComputeStall)/float64(r.ComputeStall)
	}
	return res, nil
}

// Table renders the blocking: one row per block with its extent, policy
// and costs — the textual form of the paper's block diagram.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		ID:    "fig7",
		Title: "best blocking found by KARMA for ResNet-50 (batch 512)",
		Headers: []string{
			"block", "segments", "layers", "policy", "activations", "fwd", "swap",
		},
	}
	for i, b := range r.Schedule.Blocks {
		layers := 0
		for _, pb := range r.Schedule.Profile.Blocks[b.Range[0]:b.Range[1]] {
			layers += len(pb.Seg.Nodes)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d-%d", b.Range[0], b.Range[1]),
			fmt.Sprintf("%d", layers),
			b.Policy.String(),
			b.Cost.ActBytes.String(),
			b.Cost.FwdTime.String(),
			b.Cost.SwapTime.String(),
		})
	}
	// Note order follows the paper's quote (43% vs SuperNeurons, 37% vs
	// vDNN++), not the map's randomized iteration order.
	for _, m := range []baseline.Method{baseline.SuperNeurons, baseline.VDNNPP} {
		if red, ok := r.StallReduction[m]; ok {
			t.Notes = append(t.Notes,
				fmt.Sprintf("stall reduction vs %s: %.0f%%", m, 100*red))
		}
	}
	t.Notes = append(t.Notes, "plan: "+truncate(r.Plan, 160))
	return t
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// SwappedFraction is a convenience metric: the share of activation bytes
// the schedule moves over the link.
func (r *Fig7Result) SwappedFraction() float64 {
	total := unit.Bytes(0)
	for _, b := range r.Schedule.Blocks {
		total += b.Cost.ActBytes
	}
	if total == 0 {
		return 0
	}
	return float64(r.Schedule.SwappedBytes()) / float64(total)
}
