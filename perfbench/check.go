package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// verdict is the subset of dist.Result the checks read. Numbers decode
// as float64 so a negative or fractional count cannot hide.
type verdict struct {
	Feasible    bool       `json:"feasible"`
	EpochTime   float64    `json:"epoch_time_s"`
	IterTime    float64    `json:"iter_time_s"`
	IterPerSec  float64    `json:"iter_per_sec"`
	CostPerf    float64    `json:"cost_perf"`
	GPUs        float64    `json:"gpus"`
	GlobalBatch float64    `json:"global_batch"`
	Breakdown   *breakdown `json:"breakdown"`
}

type breakdown struct {
	Compute       float64            `json:"compute_s"`
	Recompute     float64            `json:"recompute_s"`
	SwapStall     float64            `json:"swap_stall_s"`
	ExchangeStall float64            `json:"exchange_stall_s"`
	Collective    float64            `json:"collective_s"`
	Bubble        float64            `json:"bubble_s"`
	Update        float64            `json:"update_s"`
	Busy          map[string]float64 `json:"busy"`
	Occupancy     float64            `json:"occupancy"`
}

// outcome is what one answer contributed: the verdicts it carried and
// how many were feasible.
type outcome struct {
	verdicts, feasible int
}

// checkVerdict applies the north-star invariants to one verdict. gpus
// and globalBatch are the values the request implies, or -1 when the
// caller cannot know them (sweep rows whose batch the panel chose).
func checkVerdict(v *verdict, gpus, globalBatch int) error {
	for name, x := range map[string]float64{
		"epoch_time_s": v.EpochTime, "iter_time_s": v.IterTime, "iter_per_sec": v.IterPerSec,
		"cost_perf": v.CostPerf, "gpus": v.GPUs, "global_batch": v.GlobalBatch,
	} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("%s = %v is not a finite non-negative number", name, x)
		}
	}
	if v.GPUs != math.Trunc(v.GPUs) || v.GlobalBatch != math.Trunc(v.GlobalBatch) {
		return fmt.Errorf("fractional count: gpus %v, global_batch %v", v.GPUs, v.GlobalBatch)
	}
	if gpus >= 0 && v.GPUs != float64(gpus) {
		return fmt.Errorf("gpus = %v, request asked for %d", v.GPUs, gpus)
	}
	if globalBatch >= 0 && v.GlobalBatch != float64(globalBatch) {
		return fmt.Errorf("global_batch = %v, want replicas x batch = %d", v.GlobalBatch, globalBatch)
	}
	if !v.Feasible {
		return nil
	}
	if v.EpochTime < v.IterTime {
		return fmt.Errorf("epoch_time_s %v < iter_time_s %v", v.EpochTime, v.IterTime)
	}
	if v.IterTime <= 0 || v.GlobalBatch < 1 {
		return fmt.Errorf("feasible verdict with iter_time_s %v, global_batch %v", v.IterTime, v.GlobalBatch)
	}
	b := v.Breakdown
	if b == nil {
		return fmt.Errorf("feasible verdict without a breakdown")
	}
	parts := []float64{b.Compute, b.Recompute, b.SwapStall, b.ExchangeStall, b.Collective, b.Bubble, b.Update, b.Occupancy}
	for _, x := range b.Busy {
		parts = append(parts, x)
	}
	sum := 0.0
	for i, x := range parts {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("breakdown component %v is not a finite non-negative number", x)
		}
		if i < 7 {
			sum += x
		}
	}
	// The tolerance of the program's own reconciliation property test.
	if tol := 1e-9*v.IterTime + 1e-12; math.Abs(sum-v.IterTime) > tol {
		return fmt.Errorf("breakdown sums to %v, iter_time_s is %v", sum, v.IterTime)
	}
	return nil
}

// replicaBatch returns replicas x batch for an evaluate request.
func replicaBatch(r Request) int {
	e := r.Eval
	switch e.Family {
	case "mp+dp", "zero":
		return e.GPUs / e.MP * e.Batch
	case "pipeline":
		return e.GPUs / e.Stages * e.Batch
	}
	return e.GPUs * e.Batch
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkAnswer validates one 200 body against its request.
func checkAnswer(r Request, body []byte) (outcome, error) {
	switch r.Endpoint {
	case "/v1/evaluate", "/v1/plan":
		var resp struct {
			Result *verdict        `json:"result"`
			Plan   json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return outcome{}, fmt.Errorf("decoding body: %v", err)
		}
		if resp.Result == nil {
			return outcome{}, fmt.Errorf("body has no result")
		}
		if r.Endpoint == "/v1/plan" {
			var pl struct {
				Stages [][]json.RawMessage `json:"stages"`
			}
			if err := json.Unmarshal(resp.Plan, &pl); err != nil || len(pl.Stages) == 0 || len(pl.Stages[0]) == 0 {
				return outcome{}, fmt.Errorf("plan is not a plan with staged ops (%v)", err)
			}
			if !resp.Result.Feasible {
				return outcome{}, fmt.Errorf("plan exported for an infeasible verdict")
			}
		}
		if err := checkVerdict(resp.Result, r.Eval.GPUs, replicaBatch(r)); err != nil {
			return outcome{}, err
		}
		return outcome{verdicts: 1, feasible: b2i(resp.Result.Feasible)}, nil
	case "/v1/feasibility":
		var resp struct {
			Feasible    bool    `json:"feasible"`
			Reason      string  `json:"reason"`
			GPUs        float64 `json:"gpus"`
			GlobalBatch float64 `json:"global_batch"`
			Backend     string  `json:"backend"`
		}
		if err := strictDecode(body, &resp); err != nil {
			return outcome{}, fmt.Errorf("decoding body: %v", err)
		}
		if resp.GPUs != float64(r.Eval.GPUs) || resp.GlobalBatch != float64(replicaBatch(r)) {
			return outcome{}, fmt.Errorf("gpus %v global_batch %v, want %d and %d", resp.GPUs, resp.GlobalBatch, r.Eval.GPUs, replicaBatch(r))
		}
		if resp.Feasible == (resp.Reason != "") {
			return outcome{}, fmt.Errorf("feasible=%v with reason %q", resp.Feasible, resp.Reason)
		}
		return outcome{verdicts: 1, feasible: b2i(resp.Feasible)}, nil
	case "/v1/trace":
		var tr struct {
			TraceEvents []struct {
				Name  string   `json:"name"`
				Phase string   `json:"ph"`
				TS    *float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			return outcome{}, fmt.Errorf("decoding trace: %v", err)
		}
		if len(tr.TraceEvents) == 0 {
			return outcome{}, fmt.Errorf("trace has no events")
		}
		for _, e := range tr.TraceEvents {
			if e.Name == "" || e.Phase == "" || e.TS == nil {
				return outcome{}, fmt.Errorf("trace event without name, ph or ts")
			}
		}
		return outcome{verdicts: 1, feasible: 1}, nil
	case "/v1/sweep":
		return checkSweep(r, body)
	}
	return outcome{}, fmt.Errorf("no check for endpoint %s", r.Endpoint)
}

// checkSweep validates every verdict in a panel. Fig. 8 rows pin the
// GPU count of their verdicts; the batch is the panel's choice, so the
// global batch is checked for integrality and sign only.
func checkSweep(r Request, body []byte) (outcome, error) {
	var resp struct {
		Panel string `json:"panel"`
		Fig8  *struct {
			Rows []struct {
				GPUs    int                 `json:"gpus"`
				Results map[string]*verdict `json:"results"`
			} `json:"rows"`
		} `json:"fig8"`
		Table4 []struct {
			HybridGPUs int      `json:"hybrid_gpus"`
			Hybrid     *verdict `json:"hybrid"`
			KARMAGPUs  int      `json:"karma_gpus"`
			KARMA      *verdict `json:"karma"`
			Pipeline   *verdict `json:"pipeline"`
		} `json:"table4"`
		Table5 map[string][]struct {
			GlobalBatch int      `json:"global_batch"`
			DP          *verdict `json:"dp"`
			KARMA       *verdict `json:"karma"`
		} `json:"table5"`
		Topo []struct {
			ZeRO  *verdict `json:"zero"`
			KARMA *verdict `json:"karma"`
			Combo *verdict `json:"combo"`
			Ratio float64  `json:"ratio"`
		} `json:"topo"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return outcome{}, fmt.Errorf("decoding sweep: %v", err)
	}
	if resp.Panel != r.Sweep.Panel {
		return outcome{}, fmt.Errorf("panel %q answered for %q", resp.Panel, r.Sweep.Panel)
	}
	var o outcome
	add := func(v *verdict, gpus, global int) error {
		if v == nil {
			return nil
		}
		o.verdicts++
		o.feasible += b2i(v.Feasible)
		return checkVerdict(v, gpus, global)
	}
	var err error
	switch {
	case resp.Fig8 != nil:
		if len(resp.Fig8.Rows) != len(r.Sweep.GPUs) {
			return o, fmt.Errorf("fig8 panel has %d rows for %d GPU counts", len(resp.Fig8.Rows), len(r.Sweep.GPUs))
		}
		for i, row := range resp.Fig8.Rows {
			if row.GPUs != r.Sweep.GPUs[i] {
				return o, fmt.Errorf("fig8 row %d is %d GPUs, want %d", i, row.GPUs, r.Sweep.GPUs[i])
			}
			for _, name := range sortedKeys(row.Results) {
				if err = add(row.Results[name], -1, -1); err != nil {
					return o, fmt.Errorf("fig8 row %d %s: %v", i, name, err)
				}
			}
		}
	case resp.Table4 != nil:
		for i, row := range resp.Table4 {
			for _, e := range []error{add(row.Hybrid, row.HybridGPUs, -1), add(row.KARMA, row.KARMAGPUs, -1), add(row.Pipeline, -1, -1)} {
				if e != nil {
					return o, fmt.Errorf("table4 row %d: %v", i, e)
				}
			}
		}
	case resp.Table5 != nil:
		for _, name := range sortedKeys(resp.Table5) {
			for i, row := range resp.Table5[name] {
				for _, e := range []error{add(row.DP, -1, row.GlobalBatch), add(row.KARMA, -1, row.GlobalBatch)} {
					if e != nil {
						return o, fmt.Errorf("table5 %s row %d: %v", name, i, e)
					}
				}
			}
		}
	case resp.Topo != nil:
		for i, row := range resp.Topo {
			if math.IsNaN(row.Ratio) || math.IsInf(row.Ratio, 0) || row.Ratio < 0 {
				return o, fmt.Errorf("topo row %d ratio %v", i, row.Ratio)
			}
			for _, e := range []error{add(row.ZeRO, r.Sweep.GPUs[0], -1), add(row.KARMA, r.Sweep.GPUs[0], -1), add(row.Combo, r.Sweep.GPUs[0], -1)} {
				if e != nil {
					return o, fmt.Errorf("topo row %d: %v", i, e)
				}
			}
		}
	default:
		return o, fmt.Errorf("sweep body carries no panel")
	}
	if o.verdicts == 0 {
		return o, fmt.Errorf("sweep body carries no verdicts")
	}
	return o, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
