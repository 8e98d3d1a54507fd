package karma

import (
	"fmt"

	"karma/internal/hw"
	"karma/internal/plan"
	"karma/internal/unit"
)

// BuildPlan lowers a schedule to the stage IR of Algorithm 1.
//
// Forward phase (Fig. 2b/c): F_b stages in order; a swapped block's
// swap-out launches with the next block's forward ("F_{b+1}||Sout_b"); a
// recomputed block's activations are dropped once the next forward has
// consumed its boundary.
//
// Backward phase: the last blocks are resident, so B starts immediately
// at the forward→backward transition (the capacity-based strategy's
// advantage over the eager vDNN schedule, §III-E2). All swap-ins launch
// at the first backward stage in consumption order; the H2D stream's FIFO
// plus the simulator's capacity gating yield exactly the "keep swapping
// in while space allows" behaviour. Recomputes interleave on the compute
// stream right before their backward (§III-F).
//
// Under weight streaming (Options.StreamWeights, §III-G) the plan also
// carries the block-weight traffic of the cluster regime: non-resident
// blocks prefetch their weights one stage ahead in the forward phase,
// drop them after use (the host keeps the clean copy), refetch them with
// the backward swap-in, and drain their gradients to far memory after
// backward — the Fig. 3 pipeline of one KARMA-DP replica.
func BuildPlan(s *Schedule) (*plan.Plan, error) {
	return buildPlan(new(plan.Builder), "karma/"+s.Profile.Name, s)
}

// buildPlan lowers s into the builder's arenas (see BuildPlan for the
// schedule semantics). The candidate search passes one long-lived
// builder and a precomputed name so steady-state builds allocate
// nothing; the returned plan aliases the builder and is invalidated by
// its next Reset.
func buildPlan(bld *plan.Builder, name string, s *Schedule) (*plan.Plan, error) {
	k := len(s.Blocks)
	if k == 0 {
		return nil, fmt.Errorf("karma: empty schedule")
	}
	for i, b := range s.Blocks {
		if b.Policy == Recompute && i == k-1 {
			return nil, fmt.Errorf("karma: last block cannot be recomputed (it is resident by construction)")
		}
		if i >= s.Resident && b.Policy != Keep {
			return nil, fmt.Errorf("karma: resident block %d has policy %v", i, b.Policy)
		}
		if i < s.Resident && b.Policy == Keep {
			return nil, fmt.Errorf("karma: non-resident block %d has policy keep", i)
		}
	}

	bld.Reset(name, k)
	swapBW := hw.SwapThroughput(s.Profile.Node)
	lat := s.Profile.Node.Link.Latency
	move := func(n unit.Bytes) unit.Seconds {
		return unit.TransferTime(n, swapBW, lat)
	}
	// Swapped blocks move only their heavy-layer activations; the cheap
	// remainder is rematerialized locally during backward (the
	// cost-driven version of SuperNeurons' layer-type split).
	heavyMove := func(b int) unit.Seconds {
		return move(s.Blocks[b].Cost.HeavyActBytes)
	}
	// streamed reports whether block b swaps its weights with itself.
	streamed := func(b int) bool {
		return s.Blocks[b].Policy != Keep && s.Blocks[b].WBytes > 0
	}
	// wIn is the forward-phase weight prefetch of a streamed block.
	wIn := func(b int) plan.Op {
		return plan.Op{
			Kind: plan.SwapIn, Block: b,
			Duration: move(s.Blocks[b].WBytes),
			Alloc:    s.Blocks[b].WBytes,
		}
	}

	// Forward phase.
	for b := 0; b < k; b++ {
		bld.BeginStage()
		if b == 0 && streamed(0) {
			bld.Add(wIn(0))
		}
		alloc := s.Blocks[b].Payload()
		if streamed(b) {
			// Weights arrive via the prefetch; the gradient buffer is
			// allocated with the backward swap-in.
			alloc = s.Blocks[b].Cost.ActBytes
		}
		fwd := plan.Op{
			Kind: plan.Fwd, Block: b,
			Duration: s.Blocks[b].Cost.FwdTime,
			Alloc:    alloc,
		}
		// A recomputed predecessor's activations (and streamed weights)
		// are dropped when this forward completes; a checkpointed block
		// keeps its boundary resident for the run that will replay from
		// it.
		if b > 0 && s.Blocks[b-1].Policy == Recompute {
			drop := s.Blocks[b-1].Cost.ActBytes + s.Blocks[b-1].WBytes
			if s.Blocks[b-1].Ckpt {
				drop -= s.Blocks[b-1].Cost.OutBytes
			}
			fwd.Free += drop
		}
		bld.Add(fwd)
		if b > 0 && s.Blocks[b-1].Policy == Swap {
			bld.Add(plan.Op{
				Kind: plan.SwapOut, Block: b - 1,
				Duration: heavyMove(b - 1),
				Free:     s.Blocks[b-1].Cost.ActBytes + s.Blocks[b-1].WBytes,
			})
		}
		if b+1 < k && streamed(b+1) {
			// Prefetch the next block's weights one stage ahead so the
			// transfer overlaps this block's forward compute.
			bld.Add(wIn(b + 1))
		}
		bld.EndStage()
	}

	// Backward phase. First stage: B_{k-1} plus every swap-in, queued in
	// consumption order: descending block order, except that a recompute
	// run's streamed weight prefetches arrive in replay (ascending)
	// order, matching the order the replays consume them.
	//
	// The last block's activations never leave the device even when its
	// policy is Swap (there is no later forward to overlap a swap-out
	// with), but under weight streaming its prefetched weights and the
	// gradient buffer still follow the streamed protocol: the buffer is
	// allocated at backward and both drain right after it.
	lastBwd := plan.Op{
		Kind: plan.Bwd, Block: k - 1,
		Duration: s.Blocks[k-1].Cost.BwdTime,
		Free:     s.Blocks[k-1].Payload(),
	}
	if streamed(k - 1) {
		lastBwd.Alloc = s.Blocks[k-1].GBytes
		lastBwd.Free = s.Blocks[k-1].Cost.ActBytes
	}
	bld.BeginStage()
	bld.Add(lastBwd)
	for b := k - 2; b >= 0; b-- {
		switch s.Blocks[b].Policy {
		case Swap:
			bld.Add(plan.Op{
				Kind: plan.SwapIn, Block: b,
				Duration: move(s.Blocks[b].Cost.HeavyActBytes + s.Blocks[b].WBytes),
				Alloc:    s.Blocks[b].Cost.HeavyActBytes + s.Blocks[b].WBytes + s.Blocks[b].GBytes,
			})
		case Recompute:
			if !runContinues(s, b) {
				for rb := runStart(s, b); rb <= b; rb++ {
					if streamed(rb) {
						op := wIn(rb)
						op.Alloc += s.Blocks[rb].GBytes
						bld.Add(op)
					}
				}
			}
		}
	}
	bld.EndStage()
	if streamed(k - 1) {
		bld.Stage(plan.Op{
			Kind: plan.SwapOut, Block: k - 1,
			Duration: move(s.Blocks[k-1].GBytes),
			Free:     s.Blocks[k-1].WBytes + s.Blocks[k-1].GBytes,
		})
	}

	for b := k - 2; b >= 0; b-- {
		if s.Blocks[b].Policy == Recompute && !runContinues(s, b) {
			// b ends a recompute run: replay the whole run in forward
			// order from its boundary — a resident checkpoint, a swapped
			// predecessor's prefetched activations, or the model input —
			// so one boundary serves all blocks of the run (§III-F).
			start := runStart(s, b)
			for rb := start; rb <= b; rb++ {
				op := plan.Op{
					Kind: plan.Recompute, Block: rb,
					Duration: s.Blocks[rb].Cost.FwdTime,
					Alloc:    s.Blocks[rb].Cost.ActBytes,
				}
				if rb == start && start > 0 && s.Blocks[start-1].Ckpt {
					// The replay consumes the checkpoint boundary.
					op.Free = s.Blocks[start-1].Cost.OutBytes
				}
				bld.Stage(op)
			}
		}
		bwd := plan.Op{
			Kind: plan.Bwd, Block: b,
			Duration: s.Blocks[b].Cost.BwdTime,
			Free:     s.Blocks[b].Payload(),
		}
		if streamed(b) {
			// Streamed weights and the gradient buffer outlive the
			// backward pass; the gradient drain below releases them.
			bwd.Free = s.Blocks[b].Cost.ActBytes
		}
		if s.Blocks[b].Policy == Swap {
			// Rematerialize the cheap (unswapped) activations in line
			// with the backward pass.
			bwd.Duration += s.Blocks[b].Cost.CheapFwdTime
			bwd.Alloc = s.Blocks[b].Cost.ActBytes - s.Blocks[b].Cost.HeavyActBytes
		}
		bld.Stage(bwd)
		if streamed(b) {
			// Drain the block's gradients to far memory (the host-side
			// update of Fig. 3 stage 5 consumes them there) and drop the
			// weights — the host keeps the clean copy.
			bld.Stage(plan.Op{
				Kind: plan.SwapOut, Block: b,
				Duration: move(s.Blocks[b].GBytes),
				Free:     s.Blocks[b].WBytes + s.Blocks[b].GBytes,
			})
		}
	}
	return bld.Plan(), nil
}

// recomputed reports whether block i exists and recomputes.
func recomputed(s *Schedule, i int) bool {
	return i >= 0 && i < len(s.Blocks) && s.Blocks[i].Policy == Recompute
}

// runStart returns the first block of the recompute run ending at block
// b: the run extends backwards through recomputed predecessors until a
// checkpoint boundary or a differently-policied block.
func runStart(s *Schedule, b int) int {
	start := b
	for start > 0 && recomputed(s, start-1) && !s.Blocks[start-1].Ckpt {
		start--
	}
	return start
}

// runContinues reports whether block i's recompute run extends to block
// i+1 (i.e. i is not the run's last block): the next block recomputes and
// does not replay from a checkpoint placed on block i.
func runContinues(s *Schedule, i int) bool {
	return recomputed(s, i+1) && !s.Blocks[i].Ckpt
}

// RunContinues reports whether recomputed block i's replay run extends
// to block i+1 — block i's boundary is then consumed mid-replay rather
// than from a resident checkpoint. Consumers that must agree with
// BuildPlan's run structure (the MP collective injection of
// internal/dist re-reduces exactly these interior boundaries) use this
// rather than re-deriving it.
func (s *Schedule) RunContinues(i int) bool {
	return i >= 0 && i < len(s.Blocks) && runContinues(s, i)
}
