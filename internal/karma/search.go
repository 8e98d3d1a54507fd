package karma

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"karma/internal/hw"
	"karma/internal/occupancy"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/sim"
	"karma/internal/solve"
	"karma/internal/unit"
)

// Plan runs the two-tier optimization of Fig. 4 and returns a complete
// schedule: Opt-1 groups profiled segments into blocks maximizing
// occupancy under the memory-capacity constraint; Opt-2 flips blocks from
// swapping to recomputation where that reduces pipeline stalls
// (constraint 10.1).
func Plan(p *profiler.Profile, opts Options) (*Schedule, error) {
	opts.normalize()
	budget, err := ActivationBudget(p, opts)
	if err != nil {
		return nil, err
	}
	n := len(p.Blocks)
	if n == 0 {
		return nil, fmt.Errorf("karma: profile has no blocks")
	}
	sr := newSearcher(p, budget, opts)

	weights := make([]float64, n)
	for i, b := range p.Blocks {
		// Partition on payload bytes with a floor so zero-activation
		// segments still carry positional weight.
		w := float64(b.ActBytes)
		if opts.StreamWeights {
			w += (1 + opts.GradScale) * float64(b.WeightBytes)
		}
		weights[i] = w + 1
	}
	// One Partitioner serves every k below: its parametric-search memo is
	// shared across the Opt-1 enumeration and the Opt-2 ladder (cut
	// positions are bit-identical to per-k BalancedPartition calls).
	pt, err := solve.NewPartitioner(weights)
	if err != nil {
		return nil, err
	}
	eval := sr.eval

	// Opt-1: enumerate balanced partitions over K, then refine.
	maxK := opts.MaxBlocks
	if maxK > n {
		maxK = n
	}
	var bestCuts []int
	bestV := math.Inf(1)
	for k := 1; k <= maxK; k++ {
		cuts, err := pt.Cuts(k)
		if err != nil {
			continue
		}
		if v := eval(cuts); v < bestV {
			bestV, bestCuts = v, cuts
		}
	}
	if math.IsInf(bestV, 1) {
		return nil, fmt.Errorf("karma: no feasible partition: a single segment exceeds the activation budget %v", budget)
	}
	switch opts.Solver {
	case SolverBalanced:
		bestCuts = solve.HillClimb(bestCuts, n, eval, 6)
	case SolverACO:
		if cuts, err := solve.ACOBoundaries(n, len(bestCuts)+1, eval, opts.Seed); err == nil && eval(cuts) < eval(bestCuts) {
			bestCuts = cuts
		}
	default:
		return nil, fmt.Errorf("karma: unknown solver %d", int(opts.Solver))
	}

	// Opt-2: jointly search the residency depth and the recompute
	// interleave over a ladder of blocking granularities. Keeping the
	// maximal resident suffix is not always optimal — shrinking it frees
	// budget for recompute checkpoints, trading swap traffic for
	// redundant compute (constraint 10.1) — and recompute-heavy policies
	// prefer different granularities than swap-heavy ones, so the final
	// selection simulates candidates across both dimensions. The
	// incumbent's time threads through as a bound: candidates whose
	// makespan lower bound already exceeds it are pruned unsimulated.
	s, t, err := sr.bestPolicy(bestCuts, unit.Seconds(math.Inf(1)))
	var ladderCuts []int
	for _, k := range []int{maxK, maxK * 3 / 4, maxK / 2, maxK / 4, 8, 6, 4, 3, 2} {
		if k < 2 || k > n || k == len(bestCuts)+1 {
			continue
		}
		cuts, cerr := pt.AppendCuts(ladderCuts[:0], k)
		if cerr != nil {
			continue
		}
		ladderCuts = cuts
		bound := unit.Seconds(math.Inf(1))
		if err == nil {
			bound = t
		}
		if s2, t2, err2 := sr.bestPolicy(cuts, bound); err2 == nil && (err != nil || t2 < t) {
			s, t, err = s2, t2, err2
		}
	}
	if err != nil {
		return nil, err
	}
	// Candidates were costed from metadata-free merged blocks; give the
	// winner the full merges (identical numerics plus the segment lists).
	for i := range s.Blocks {
		s.Blocks[i].Cost = p.MergeBlocks(s.Blocks[i].Range[0], s.Blocks[i].Range[1])
	}
	return s, nil
}

// searcher carries the reusable state of one Plan invocation: merged
// block costs and partition objective values memoized across candidates,
// scratch buffers for the analytic estimate, and the plan
// builder/compiler/simulator whose arenas every simulated candidate
// shares. Zero steady-state allocation is the point: the Opt-1/Opt-2
// search replays these paths thousands of times per plan.
type searcher struct {
	p      *profiler.Profile
	opts   Options
	budget unit.Bytes
	bw     unit.BytesPerSec
	lat    unit.Seconds
	name   string // plan name of every candidate build

	merged   map[[2]int]profiler.Block // MergeCosts per block range
	evalMemo map[string]float64        // estimate per encoded cut set
	evalKey  []byte

	// estimate scratch
	eblocks  []profiler.Block
	payloads []unit.Bytes
	wbytes   []unit.Bytes
	seq      []occupancy.Block
	arrive   []unit.Seconds

	// bestPolicy scratch: the merged blocks of the current cut set, their
	// payloads, and the candidate under test, rebuilt in place for every
	// resident depth. Only a strictly improving candidate is cloned out,
	// so a returned schedule never aliases them (Plan holds one call's
	// winner across the next).
	base []Block
	bpay []unit.Bytes
	cand Schedule

	builder  plan.Builder
	compiler plan.Compiler
	runner   sim.Runner
}

func newSearcher(p *profiler.Profile, budget unit.Bytes, opts Options) *searcher {
	return &searcher{
		p:        p,
		opts:     opts,
		budget:   budget,
		bw:       hw.SwapThroughput(p.Node),
		lat:      p.Node.Link.Latency,
		name:     "karma/" + p.Name,
		merged:   map[[2]int]profiler.Block{},
		evalMemo: map[string]float64{},
	}
}

// mergeCosts returns the numeric merge of blocks [i, j), cached — the
// same ranges recur across every candidate cut set sharing a boundary.
func (sr *searcher) mergeCosts(i, j int) profiler.Block {
	key := [2]int{i, j}
	if b, ok := sr.merged[key]; ok {
		return b
	}
	b := sr.p.MergeCosts(i, j)
	sr.merged[key] = b
	return b
}

// eval is the memoized Opt-1 objective over cut positions.
func (sr *searcher) eval(cuts []int) float64 {
	k := sr.evalKey[:0]
	for _, c := range cuts {
		k = binary.AppendVarint(k, int64(c))
	}
	sr.evalKey = k
	if v, ok := sr.evalMemo[string(k)]; ok {
		return v
	}
	v := float64(sr.estimate(cuts))
	sr.evalMemo[string(k)] = v
	return v
}

// estimate is the fast analytic objective for Opt-1: the estimated
// iteration makespan for a candidate partition, assuming every
// non-resident block swaps (recompute refinement happens later). Under
// StreamWeights the payloads and transfers include the weight and
// gradient share travelling with each block (§III-G). Infeasible
// partitions return +Inf.
func (sr *searcher) estimate(cuts []int) unit.Seconds {
	n := len(sr.p.Blocks)
	blocks := sr.eblocks[:0]
	payloads := sr.payloads[:0]
	wbytes := sr.wbytes[:0]
	start := 0
	for i := 0; i <= len(cuts); i++ {
		end := n
		if i < len(cuts) {
			end = cuts[i]
		}
		b := sr.mergeCosts(start, end)
		start = end
		blocks = append(blocks, b)
		payload := b.ActBytes
		var wb unit.Bytes
		if sr.opts.StreamWeights {
			wb = b.WeightBytes
			payload += wb + unit.Bytes(math.Ceil(sr.opts.GradScale*float64(wb)))
		}
		payloads = append(payloads, payload)
		wbytes = append(wbytes, wb)
	}
	sr.eblocks, sr.payloads, sr.wbytes = blocks, payloads, wbytes
	for _, pl := range payloads {
		if pl > sr.budget {
			return unit.Seconds(math.Inf(1))
		}
	}
	r := occupancy.ResidentSuffix(payloads, sr.budget)

	// Forward phase: compute serializes; swap-outs of the non-resident
	// prefix (heavy payloads only) overlap on the D2H stream, weight
	// prefetches of the streamed prefix overlap on the H2D stream.
	var fwd, sout, sinW unit.Seconds
	for i, b := range blocks {
		fwd += b.FwdTime
		if i < r {
			sout += unit.TransferTime(b.HeavyActBytes, sr.bw, 0)
			sinW += unit.TransferTime(wbytes[i], sr.bw, 0)
		}
	}
	fwdPhase := fwd
	if sout > fwdPhase {
		fwdPhase = sout
	}
	if sinW > fwdPhase {
		fwdPhase = sinW
	}

	// Backward phase under the capacity-based policy (Eqs. 3-8):
	// resident tail processes stall-free while the swapped prefix streams
	// in FIFO (heavy activations plus streamed weights), each swapped
	// block adding its cheap local recompute.
	seq := sr.seq[:0]
	for i := len(blocks) - 1; i >= 0; i-- {
		ob := occupancy.Block{Proc: blocks[i].BwdTime}
		if i < r {
			ob.Proc += blocks[i].CheapFwdTime
			ob.Bytes = blocks[i].HeavyActBytes + wbytes[i] + 1 // +1: keep transfer ordering strict
		}
		seq = append(seq, ob)
	}
	sr.seq = seq
	if cap(sr.arrive) < len(seq) {
		sr.arrive = make([]unit.Seconds, len(seq))
	}
	est := occupancy.BackwardScratch(seq, sr.bw, sr.arrive[:len(seq)])
	return fwdPhase + est.Total
}

// iterTime simulates one candidate through the shared builder, compiler
// and runner, returning only the makespan. Error values match
// Simulate's exactly (the search keeps the first failure).
func (sr *searcher) iterTime(cand *Schedule) (unit.Seconds, error) {
	pl, err := buildPlan(&sr.builder, sr.name, cand)
	if err != nil {
		return 0, err
	}
	c, err := sr.compiler.Compile(pl)
	if err != nil {
		return 0, err
	}
	//karma:plan-ok ops come from Compile on this same plan; the pooled Runner just skips Simulate's per-call allocations
	tl, err := sr.runner.Run(c.Ops, cand.Budget)
	if err != nil {
		return 0, fmt.Errorf("plan %s: %w", pl.Name, err)
	}
	return tl.Makespan, nil
}

// lowerBound returns a provable lower bound on the simulated makespan of
// the schedule's plan: the busiest stream's total op duration, summed
// from the same per-block costs BuildPlan emits (compute: forwards,
// backwards, cheap remats of swapped blocks and full replays of
// recomputed ones; H2D: weight prefetches and backward swap-ins; D2H:
// swap-outs and gradient drains). Every op runs exactly once on its FIFO
// stream, so the makespan can never undercut any stream's busy total.
func (sr *searcher) lowerBound(s *Schedule) float64 {
	k := len(s.Blocks)
	var compute, h2d, d2h unit.Seconds
	for i := range s.Blocks {
		b := &s.Blocks[i]
		compute += b.Cost.FwdTime + b.Cost.BwdTime
		switch b.Policy {
		case Swap:
			// The last block never actually swaps: no swap-out overlaps a
			// later forward, no swap-in or remat precedes its backward.
			if i < k-1 {
				compute += b.Cost.CheapFwdTime
				d2h += unit.TransferTime(b.Cost.HeavyActBytes, sr.bw, sr.lat)
				h2d += unit.TransferTime(b.Cost.HeavyActBytes+b.WBytes, sr.bw, sr.lat)
			}
		case Recompute:
			compute += b.Cost.FwdTime
		}
		if b.Policy != Keep && b.WBytes > 0 {
			h2d += unit.TransferTime(b.WBytes, sr.bw, sr.lat) // forward prefetch
			if b.Policy == Recompute {
				h2d += unit.TransferTime(b.WBytes, sr.bw, sr.lat) // backward refetch
			}
			d2h += unit.TransferTime(b.GBytes, sr.bw, sr.lat) // gradient drain
		}
	}
	lb := compute
	if h2d > lb {
		lb = h2d
	}
	if d2h > lb {
		lb = d2h
	}
	return float64(lb)
}

// bestPolicy enumerates resident-suffix depths; for each depth it applies
// the greedy constraint-10.1 recompute marking to the non-resident
// prefix, then picks the schedule with the shortest simulated iteration.
// bound seeds the incumbent time (+Inf for an unconstrained search):
// only candidates strictly beating it are returned, and candidates whose
// makespan lower bound cannot beat it are dominated — skipped without
// simulating, which cannot change the winner because selection is by
// strict improvement.
func (sr *searcher) bestPolicy(cuts []int, bound unit.Seconds) (*Schedule, unit.Seconds, error) {
	// Merge the cut set from the cached numeric merges. Under
	// StreamWeights every block carries its weight and (scaled) gradient
	// payload, including resident blocks — their weights occupy the
	// budget instead of the reserve.
	n := len(sr.p.Blocks)
	base, payloads := sr.base[:0], sr.bpay[:0]
	start := 0
	for i := 0; i <= len(cuts); i++ {
		end := n
		if i < len(cuts) {
			end = cuts[i]
		}
		b := Block{Range: [2]int{start, end}, Cost: sr.mergeCosts(start, end)}
		start = end
		if sr.opts.StreamWeights {
			b.WBytes = b.Cost.WeightBytes
			b.GBytes = unit.Bytes(math.Ceil(sr.opts.GradScale * float64(b.Cost.WeightBytes)))
		}
		base = append(base, b)
		payloads = append(payloads, b.Payload())
	}
	sr.base, sr.bpay = base, payloads
	k := len(base)
	maxResident := occupancy.ResidentSuffix(payloads, sr.budget)

	cand := &sr.cand
	*cand = Schedule{Profile: sr.p, Opts: sr.opts, Blocks: cand.Blocks, Budget: sr.budget}
	// reset rebuilds the candidate as the plain partition with resident
	// suffix [r:]; the caller assigns every block's policy.
	reset := func(r int) {
		cand.Blocks = append(cand.Blocks[:0], base...)
		cand.Resident = r
	}

	var best *Schedule
	bestTime := bound
	var firstErr error
	try := func() {
		// Dominance prune: a candidate whose provable floor is already at
		// or above the incumbent cannot strictly improve on it. The
		// (1-1e-9) factor absorbs the different floating-point summation
		// order between the bound and the simulator's busy accounting.
		if lb := sr.lowerBound(cand); lb*(1-1e-9) >= float64(bestTime) {
			return
		}
		t, err := sr.iterTime(cand)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if t < bestTime {
			win := *cand
			win.Blocks = slices.Clone(cand.Blocks)
			bestTime, best = t, &win
		}
	}
	for r := maxResident; r <= k; r++ {
		var tail unit.Bytes
		for i := r; i < k; i++ {
			tail += payloads[i]
		}
		if tail > sr.budget {
			continue
		}
		// Candidate (a): capacity-based swapping with the greedy
		// constraint-10.1 recompute interleave.
		reset(r)
		for i := range cand.Blocks {
			if i < r {
				cand.Blocks[i].Policy = Swap
			} else {
				cand.Blocks[i].Policy = Keep
			}
		}
		if !sr.opts.DisableRecompute {
			markRecompute(cand, sr.budget-tail, sr.bw, sr.lat)
		}
		try()

		// Candidate (b): checkpointed full recompute of the prefix —
		// adjacent runs split by resident boundary checkpoints (the
		// gradient-checkpointing structure, which KARMA's two-tier
		// optimization subsumes; Fig. 4's search space includes it).
		if !sr.opts.DisableRecompute && r > 0 && r < k {
			reset(r)
			if checkpointPrefix(cand, r, sr.budget-tail) {
				try()
			}
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, 0, firstErr
		}
		return nil, 0, fmt.Errorf("karma: no simulable policy for budget %v", sr.budget)
	}
	return best, bestTime, nil
}

// scheduleFromCuts materializes a schedule with fully merged blocks (the
// uncached, metadata-carrying path used outside the candidate search).
func scheduleFromCuts(p *profiler.Profile, cuts []int, budget unit.Bytes, opts Options) *Schedule {
	rs := solve.Ranges(cuts, len(p.Blocks))
	blocks := make([]Block, len(rs))
	payloads := make([]unit.Bytes, len(rs))
	for i, r := range rs {
		blocks[i] = Block{Range: [2]int{r[0], r[1]}, Cost: p.MergeBlocks(r[0], r[1])}
		if opts.StreamWeights {
			blocks[i].WBytes = blocks[i].Cost.WeightBytes
			blocks[i].GBytes = unit.Bytes(math.Ceil(opts.GradScale * float64(blocks[i].Cost.WeightBytes)))
		}
		payloads[i] = blocks[i].Payload()
	}
	resident := occupancy.ResidentSuffix(payloads, budget)
	for i := range blocks {
		if i < resident {
			blocks[i].Policy = Swap
		} else {
			blocks[i].Policy = Keep
		}
	}
	return &Schedule{Profile: p, Opts: opts, Blocks: blocks, Resident: resident, Budget: budget}
}

// checkpointPrefix marks blocks [0, r) as recompute with greedy run
// splitting: whenever the running replay working set would exceed half
// the prefix budget, the previous block gets a checkpoint and a new run
// starts. It reports whether the construction stayed memory-feasible
// (checkpoints plus the largest run fit the prefix budget).
func checkpointPrefix(s *Schedule, r int, prefixBudget unit.Bytes) bool {
	// No swaps coexist with this candidate's replays, so runs may use
	// most of the prefix budget (the rest buys checkpoints).
	runCap := prefixBudget - prefixBudget/4
	// A checkpoint must land on a block that physically stores its
	// boundary tensor (ActBytes >= OutBytes); in-place segments alias
	// their predecessor's buffer and cannot anchor a replay.
	canAnchor := func(i int) bool {
		return i > 0 && s.Blocks[i].Cost.ActBytes >= s.Blocks[i].Cost.OutBytes &&
			s.Blocks[i].Cost.OutBytes > 0
	}
	var run unit.Bytes
	for i := 0; i < r; i++ {
		s.Blocks[i].Policy = Recompute
		if run+s.Blocks[i].Payload() > runCap && i > 0 {
			for j := i - 1; j > 0; j-- {
				if canAnchor(j) {
					s.Blocks[j].Ckpt = true
					break
				}
			}
			run = 0
		}
		run += s.Blocks[i].Payload()
	}
	for i := r; i < len(s.Blocks); i++ {
		s.Blocks[i].Policy = Keep
	}
	var ckpt unit.Bytes
	for _, b := range s.Blocks {
		if b.Ckpt {
			ckpt += b.Cost.OutBytes
		}
	}
	return ckpt+maxRunBytes(s.Blocks) <= prefixBudget
}

// markRecompute greedily flips swapped blocks to full recompute in order
// of the time saved (the heavy-payload transfer avoided minus the extra
// replay compute beyond the cheap part a partial swap already pays),
// subject to the memory side condition of constraint 10.1: a recompute
// run replays wholesale, so no run's working set may exceed half the
// budget left beside the resident tail. Run boundaries need no extra
// reserve: each run replays from its predecessor's activations, which are
// either resident or arrive on the swap-in stream (the compiler emits
// that dependency).
func markRecompute(s *Schedule, prefixBudget unit.Bytes, swapBW unit.BytesPerSec, lat unit.Seconds) {
	type cand struct {
		idx     int
		benefit unit.Seconds
	}
	var cands []cand
	for i, b := range s.Blocks {
		if b.Policy != Swap || i == 0 || i == len(s.Blocks)-1 {
			continue
		}
		move := unit.TransferTime(b.Cost.HeavyActBytes, swapBW, lat)
		extraReplay := b.Cost.FwdTime - b.Cost.CheapFwdTime
		if benefit := move - extraReplay; benefit > 0 {
			cands = append(cands, cand{idx: i, benefit: benefit})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].benefit != cands[b].benefit {
			return cands[a].benefit > cands[b].benefit
		}
		return cands[a].idx < cands[b].idx
	})
	runCap := prefixBudget / 2
	for _, c := range cands {
		s.Blocks[c.idx].Policy = Recompute
		if maxRunBytes(s.Blocks) > runCap {
			s.Blocks[c.idx].Policy = Swap
		}
	}
}

// maxRunBytes returns the largest recompute run's total activation
// payload; checkpointed blocks end their run.
func maxRunBytes(blocks []Block) unit.Bytes {
	var max, cur unit.Bytes
	for _, b := range blocks {
		if b.Policy == Recompute {
			cur += b.Payload()
			if cur > max {
				max = cur
			}
			if b.Ckpt {
				cur = 0
			}
		} else {
			cur = 0
		}
	}
	return max
}
