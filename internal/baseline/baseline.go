// Package baseline implements the comparison systems of the paper's
// single-GPU evaluation (Fig. 5, Fig. 6, Table I): conventional in-core
// training, the out-of-core virtualization methods vDNN++ and ooc_cuDNN,
// the swap+recompute hybrid SuperNeurons, and the pure-recompute methods
// Checkmate and sqrt(N) gradient checkpointing. Every method lowers to
// the same plan IR and runs on the same simulator as KARMA, so
// comparisons isolate scheduling policy, not modeling differences.
package baseline

import (
	"fmt"

	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/sim"
	"karma/internal/solve"
	"karma/internal/unit"
)

// Method identifies a training strategy.
type Method string

// The evaluated methods. KARMA and KARMARecompute dispatch to the core
// planner so experiment code can sweep all methods uniformly.
const (
	InCore         Method = "in-core"
	VDNNPP         Method = "vdnn++"
	OocCuDNN       Method = "ooc_cudnn"
	SuperNeurons   Method = "superneurons"
	Checkmate      Method = "checkmate"
	GradCkpt       Method = "grad-ckpt"
	KARMA          Method = "karma"
	KARMARecompute Method = "karma+recompute"
)

// Methods lists all methods in Fig. 5 presentation order.
func Methods() []Method {
	return []Method{InCore, VDNNPP, SuperNeurons, Checkmate, KARMA, KARMARecompute}
}

// Result is the outcome of running one method on one profile.
type Result struct {
	Method   Method
	Feasible bool
	// Reason explains infeasibility.
	Reason string

	IterTime     unit.Seconds
	Throughput   float64 // samples/s
	Occupancy    float64
	ComputeStall unit.Seconds
	PeakMem      unit.Bytes
	BwdTrace     []karma.BlockTrace
}

// Run executes a method against a profile.
func Run(m Method, p *profiler.Profile) (*Result, error) {
	switch m {
	case InCore:
		return runInCore(p)
	case VDNNPP:
		return runSwapper(p, VDNNPP, 1, nil)
	case OocCuDNN:
		return runSwapper(p, OocCuDNN, 0, nil)
	case SuperNeurons:
		return runSuperNeurons(p)
	case Checkmate:
		return runRecompute(p, Checkmate)
	case GradCkpt:
		return runRecompute(p, GradCkpt)
	case KARMA:
		return runKARMA(p, true)
	case KARMARecompute:
		return runKARMA(p, false)
	default:
		return nil, fmt.Errorf("baseline: unknown method %q", m)
	}
}

func infeasible(m Method, reason string) *Result {
	return &Result{Method: m, Feasible: false, Reason: reason}
}

// fromReport converts a simulated karma report.
func fromReport(m Method, rep *karma.Report) *Result {
	return &Result{
		Method:       m,
		Feasible:     true,
		IterTime:     rep.IterTime,
		Throughput:   rep.Throughput,
		Occupancy:    rep.Occupancy,
		ComputeStall: rep.ComputeStall,
		PeakMem:      rep.PeakMem,
		BwdTrace:     rep.BwdTrace,
	}
}

// runKARMA dispatches to the core planner.
func runKARMA(p *profiler.Profile, disableRecompute bool) (*Result, error) {
	m := KARMARecompute
	if disableRecompute {
		m = KARMA
	}
	s, err := karma.Plan(p, karma.Options{DisableRecompute: disableRecompute})
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	rep, err := karma.Simulate(s)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	return fromReport(m, rep), nil
}

// runInCore is conventional training: feasible only when everything fits.
func runInCore(p *profiler.Profile) (*Result, error) {
	if !p.FitsInCore() {
		return infeasible(InCore, fmt.Sprintf("footprint %v exceeds usable %v",
			p.InCoreBytes(), p.Node.Device.UsableMem())), nil
	}
	budget, err := karma.BudgetFor(p, 0)
	if err != nil {
		return infeasible(InCore, err.Error()), nil
	}
	pl := &plan.Plan{Name: "in-core/" + p.Name, NumBlocks: len(p.Blocks)}
	for i, b := range p.Blocks {
		pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
			Kind: plan.Fwd, Block: i, Duration: b.FwdTime, Alloc: b.ActBytes,
		}}})
	}
	for i := len(p.Blocks) - 1; i >= 0; i-- {
		pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
			Kind: plan.Bwd, Block: i, Duration: p.Blocks[i].BwdTime, Free: p.Blocks[i].ActBytes,
		}}})
	}
	return simulate(InCore, pl, budget, p)
}

// runSwapper implements the eager virtualization family (§II-A1):
// every block swaps out right after its forward pass — including the last
// one, the Fig. 2a inefficiency — and swaps back in during backward with
// the given prefetch lookahead (1 block for vDNN++, 0 for ooc_cuDNN,
// which applies no prefetching).
//
// extraPolicy optionally overrides the policy per block (SuperNeurons).
func runSwapper(p *profiler.Profile, m Method, lookahead int, policy []karma.Policy) (*Result, error) {
	budget, err := karma.BudgetFor(p, 0.05)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	n := len(p.Blocks)
	if policy == nil {
		policy = make([]karma.Policy, n)
		for i := range policy {
			policy[i] = karma.Swap
		}
	}
	// Recomputed blocks pin their input boundary as a checkpoint.
	for i, pol := range policy {
		if pol == karma.Recompute && i > 0 {
			budget -= p.Blocks[i-1].OutBytes
		}
	}
	if budget <= 0 {
		return infeasible(m, "recompute checkpoints exceed device budget"), nil
	}
	// Feasibility floor: the largest adjacent working set must fit.
	for i := 0; i < n; i++ {
		need := p.Blocks[i].ActBytes
		if i+1 < n {
			need += p.Blocks[i+1].ActBytes
		}
		if need > budget {
			return infeasible(m, fmt.Sprintf("working set %v exceeds budget %v", need, budget)), nil
		}
	}

	pl := &plan.Plan{Name: string(m) + "/" + p.Name, NumBlocks: n}
	// Forward: F_b plus eager swap-out of the previous block.
	for b := 0; b < n; b++ {
		st := plan.Stage{Ops: []plan.Op{{
			Kind: plan.Fwd, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes,
		}}}
		if b > 0 {
			st.Ops = append(st.Ops, swapOutOp(p, b-1, policy[b-1])...)
		}
		pl.Stages = append(pl.Stages, st)
	}
	// Eager family flaw: the last block also swaps out, then must return
	// before its backward can begin.
	pl.Stages = append(pl.Stages, plan.Stage{Ops: swapOutOp(p, n-1, policy[n-1])})

	// Backward with fixed lookahead prefetch. The last block was eagerly
	// swapped out, so it must come back synchronously first — the Fig. 2a
	// forward→backward stall of the eager family.
	swapIn := func(b int) []plan.Op {
		if b < 0 || policy[b] != karma.Swap {
			return nil
		}
		return []plan.Op{{
			Kind: plan.SwapIn, Block: b, Duration: p.Blocks[b].SwapTime, Alloc: p.Blocks[b].ActBytes,
		}}
	}
	pl.Stages = append(pl.Stages, plan.Stage{Ops: swapIn(n - 1)})
	for b := n - 1; b >= 0; b-- {
		if policy[b] == karma.Recompute {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: plan.Recompute, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes,
			}}})
		}
		st := plan.Stage{}
		if lookahead == 0 && b < n-1 {
			// No prefetch: the fetch launches only when the backward
			// reaches the block, fully exposing the transfer.
			st.Ops = append(st.Ops, swapIn(b)...)
		}
		st.Ops = append(st.Ops, plan.Op{
			Kind: plan.Bwd, Block: b, Duration: p.Blocks[b].BwdTime, Free: p.Blocks[b].ActBytes,
		})
		if lookahead > 0 {
			// Prefetch the block consumed `lookahead` steps later.
			st.Ops = append(st.Ops, swapIn(b-lookahead)...)
		}
		pl.Stages = append(pl.Stages, st)
	}
	return simulate(m, pl, budget, p)
}

// swapOutOp emits the post-forward treatment of a block: swap-out for
// Swap policy, immediate drop for Recompute, nothing for Keep.
func swapOutOp(p *profiler.Profile, b int, pol karma.Policy) []plan.Op {
	switch pol {
	case karma.Swap:
		return []plan.Op{{
			Kind: plan.SwapOut, Block: b, Duration: p.Blocks[b].SwapTime, Free: p.Blocks[b].ActBytes,
		}}
	case karma.Recompute:
		// Dropping is free; model as a zero-duration swap-out.
		return []plan.Op{{Kind: plan.SwapOut, Block: b, Free: p.Blocks[b].ActBytes}}
	default:
		return nil
	}
}

// runSuperNeurons mixes swapping and recompute by layer *type* (§II-A3):
// the activations of heavy layers (convolutions and other weighted ops)
// swap out; cheap layers (normalization, pooling) are recomputed in
// backward. The split is per layer type, not per cost model, and there is
// no capacity-based residency — the sources of its spread-out stalls in
// Fig. 6.
func runSuperNeurons(p *profiler.Profile) (*Result, error) {
	budget, err := karma.BudgetFor(p, 0.05)
	if err != nil {
		return infeasible(SuperNeurons, err.Error()), nil
	}
	n := len(p.Blocks)
	swapBW := hw.SwapThroughput(p.Node)

	// Per block: the heavy-layer outputs swap (HeavyActBytes) and every
	// other layer's forward recomputes (TypeCheapFwdTime).
	swapBytes := func(b int) unit.Bytes { return p.Blocks[b].HeavyActBytes }
	for i := 0; i < n; i++ {
		need := p.Blocks[i].ActBytes
		if i+1 < n {
			need += p.Blocks[i+1].ActBytes
		}
		if need > budget {
			return infeasible(SuperNeurons, fmt.Sprintf("working set %v exceeds budget %v", need, budget)), nil
		}
	}

	pl := &plan.Plan{Name: "superneurons/" + p.Name, NumBlocks: n}
	move := func(b int) unit.Seconds {
		return unit.TransferTime(swapBytes(b), swapBW, p.Node.Link.Latency)
	}
	// Forward: eager treatment after each block — heavy outputs swap out,
	// the remainder drops for recompute.
	for b := 0; b < n; b++ {
		st := plan.Stage{Ops: []plan.Op{{
			Kind: plan.Fwd, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes,
		}}}
		if b > 0 {
			st.Ops = append(st.Ops, plan.Op{
				Kind: plan.SwapOut, Block: b - 1,
				Duration: move(b - 1),
				Free:     p.Blocks[b-1].ActBytes,
			})
		}
		pl.Stages = append(pl.Stages, st)
	}
	pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
		Kind: plan.SwapOut, Block: n - 1, Duration: move(n - 1), Free: p.Blocks[n-1].ActBytes,
	}}})

	// Backward: one-block-ahead prefetch of the heavy payload, cheap
	// recompute in line, like the SuperNeurons runtime.
	swapIn := func(b int) plan.Op {
		return plan.Op{
			Kind: plan.SwapIn, Block: b, Duration: move(b), Alloc: swapBytes(b),
		}
	}
	pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{swapIn(n - 1)}})
	for b := n - 1; b >= 0; b-- {
		if cheap := p.Blocks[b].TypeCheapFwdTime; cheap > 0 || p.Blocks[b].ActBytes > swapBytes(b) {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: plan.Recompute, Block: b,
				Duration: cheap,
				Alloc:    p.Blocks[b].ActBytes - swapBytes(b),
			}}})
		}
		st := plan.Stage{Ops: []plan.Op{{
			Kind: plan.Bwd, Block: b, Duration: p.Blocks[b].BwdTime, Free: p.Blocks[b].ActBytes,
		}}}
		if b-1 >= 0 {
			st.Ops = append(st.Ops, swapIn(b-1))
		}
		pl.Stages = append(pl.Stages, st)
	}
	return simulate(SuperNeurons, pl, budget, p)
}

// runRecompute implements the pure rematerialization family (§II-A2):
// no swapping. Blocks are grouped into checkpoint segments; during the
// forward pass only each segment's boundary activation survives, and
// during backward each segment is recomputed wholesale from its incoming
// checkpoint (Chen et al.'s scheme, giving the O(sqrt N) bound of
// Table I). GradCkpt uses the canonical sqrt(N) segment count; Checkmate
// ("optimal rematerialization") sweeps the segment count and keeps the
// fastest feasible schedule.
func runRecompute(p *profiler.Profile, m Method) (*Result, error) {
	budget, err := karma.BudgetFor(p, 0.05)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	n := len(p.Blocks)
	sqrtN := 1
	for sqrtN*sqrtN < n {
		sqrtN++
	}

	if m == GradCkpt {
		r, err := recomputeWithSegments(p, m, sqrtN, budget)
		if err != nil {
			return nil, err
		}
		if !r.Feasible {
			return infeasible(m, "no feasible checkpoint segmentation"), nil
		}
		return r, nil
	}
	// Checkmate sweeps the segment count. Candidates are costed on a lean
	// makespan-only path — one partitioner, builder, compiler, and
	// simulator shared across all k, so the steady-state sweep allocates
	// next to nothing — and only the winning k is rebuilt through the full
	// reporting path. The lean plan is op-for-op the plan
	// recomputeWithSegments builds, so the winner (first strict minimum in
	// ascending k, matching the old sweep order) is unchanged.
	sw, err := newCheckmateSweep(p, budget)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	bestK := -1
	var bestT unit.Seconds
	for k := 1; k <= n && k <= 48; k++ {
		t, ok := sw.iterTime(k)
		if !ok {
			continue
		}
		if bestK < 0 || t < bestT {
			bestK, bestT = k, t
		}
	}
	if bestK < 0 {
		return infeasible(m, "no feasible checkpoint segmentation"), nil
	}
	return recomputeWithSegments(p, m, bestK, budget)
}

// checkmateSweep is the reusable candidate-evaluation state of the
// Checkmate segment-count sweep.
type checkmateSweep struct {
	p      *profiler.Profile
	budget unit.Bytes
	pt     *solve.Partitioner
	cuts   []int
	bld    plan.Builder
	comp   plan.Compiler
	run    sim.Runner
}

func newCheckmateSweep(p *profiler.Profile, budget unit.Bytes) (*checkmateSweep, error) {
	weights := make([]float64, len(p.Blocks))
	for i, b := range p.Blocks {
		weights[i] = float64(b.ActBytes) + 1
	}
	pt, err := solve.NewPartitioner(weights)
	if err != nil {
		return nil, err
	}
	return &checkmateSweep{p: p, budget: budget, pt: pt}, nil
}

// iterTime costs one k-segment candidate: it builds the same plan as
// recomputeWithSegments (identical ops in identical order, so the
// simulated makespan is bit-identical) and reports the iteration time,
// or ok=false where the full path would report an infeasible result.
func (sw *checkmateSweep) iterTime(k int) (unit.Seconds, bool) {
	p := sw.p
	n := len(p.Blocks)
	cuts, err := sw.pt.AppendCuts(sw.cuts[:0], k)
	if err != nil {
		return 0, false
	}
	sw.cuts = cuts
	var ckpt unit.Bytes
	for _, c := range cuts {
		ckpt += p.Blocks[c-1].OutBytes
	}
	avail := sw.budget - ckpt
	if avail <= 0 {
		return 0, false
	}
	sw.bld.Reset(string(Checkmate), n)
	// Forward: segment acts live until the next segment's first forward.
	var prevAct unit.Bytes
	start := 0
	for ci := 0; ci <= len(cuts); ci++ {
		end := n
		if ci < len(cuts) {
			end = cuts[ci]
		}
		var act unit.Bytes
		for b := start; b < end; b++ {
			op := plan.Op{Kind: plan.Fwd, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes}
			if b == start && ci > 0 {
				op.Free = prevAct
			}
			sw.bld.Stage(op)
			act += p.Blocks[b].ActBytes
		}
		prevAct = act
		start = end
	}
	// Backward: the last segment kept its activations; earlier segments
	// recompute wholesale from their incoming checkpoint.
	for si := len(cuts); si >= 0; si-- {
		s0 := 0
		if si > 0 {
			s0 = cuts[si-1]
		}
		e0 := n
		if si < len(cuts) {
			e0 = cuts[si]
		}
		if si < len(cuts) {
			for b := s0; b < e0; b++ {
				sw.bld.Stage(plan.Op{
					Kind: plan.Recompute, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes,
				})
			}
		}
		for b := e0 - 1; b >= s0; b-- {
			sw.bld.Stage(plan.Op{
				Kind: plan.Bwd, Block: b, Duration: p.Blocks[b].BwdTime, Free: p.Blocks[b].ActBytes,
			})
		}
	}
	c, err := sw.comp.Compile(sw.bld.Plan())
	if err != nil {
		return 0, false
	}
	//karma:plan-ok ops come from Compile on a Builder-made plan; reusing one Runner avoids Simulate's per-call allocations
	tl, err := sw.run.Run(c.Ops, avail)
	if err != nil {
		return 0, false
	}
	return tl.Makespan, true
}

// recomputeWithSegments builds and simulates a k-segment checkpointing
// plan.
func recomputeWithSegments(p *profiler.Profile, m Method, k int, budget unit.Bytes) (*Result, error) {
	n := len(p.Blocks)
	weights := make([]float64, n)
	for i, b := range p.Blocks {
		weights[i] = float64(b.ActBytes) + 1
	}
	cuts, err := solve.BalancedPartition(weights, k)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	rs := solve.Ranges(cuts, n)

	// Segment boundary checkpoints stay resident the whole iteration;
	// reserve them out of the budget.
	var ckpt unit.Bytes
	for _, r := range rs[:len(rs)-1] {
		ckpt += p.Blocks[r[1]-1].OutBytes
	}
	avail := budget - ckpt
	if avail <= 0 {
		return infeasible(m, fmt.Sprintf("checkpoints %v exceed budget %v", ckpt, budget)), nil
	}
	segAct := func(r [2]int) unit.Bytes {
		var s unit.Bytes
		for i := r[0]; i < r[1]; i++ {
			s += p.Blocks[i].ActBytes
		}
		return s
	}

	pl := &plan.Plan{Name: fmt.Sprintf("%s-k%d/%s", m, k, p.Name), NumBlocks: n}
	// Forward: segment acts live until the next segment's first forward.
	for si, r := range rs {
		for b := r[0]; b < r[1]; b++ {
			op := plan.Op{Kind: plan.Fwd, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes}
			if b == r[0] && si > 0 {
				op.Free = segAct(rs[si-1])
			}
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{op}})
		}
	}
	// Backward: the last segment kept its activations; earlier segments
	// recompute wholesale from their incoming checkpoint.
	for si := len(rs) - 1; si >= 0; si-- {
		r := rs[si]
		if si < len(rs)-1 {
			for b := r[0]; b < r[1]; b++ {
				pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
					Kind: plan.Recompute, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes,
				}}})
			}
		}
		for b := r[1] - 1; b >= r[0]; b-- {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: plan.Bwd, Block: b, Duration: p.Blocks[b].BwdTime, Free: p.Blocks[b].ActBytes,
			}}})
		}
	}
	return simulate(m, pl, avail, p)
}

// simulate runs a lowered plan and packages the result.
func simulate(m Method, pl *plan.Plan, budget unit.Bytes, p *profiler.Profile) (*Result, error) {
	c, tl, err := pl.Simulate(budget)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	res := &Result{
		Method:       m,
		Feasible:     true,
		IterTime:     tl.Makespan,
		Throughput:   float64(p.Opts.Batch) / float64(tl.Makespan),
		Occupancy:    tl.Occupancy(c.Ops),
		ComputeStall: tl.ComputeIdle(c.Ops),
		PeakMem:      tl.PeakMem,
	}
	res.BwdTrace = karma.TraceBackward(c, tl)
	return res, nil
}
