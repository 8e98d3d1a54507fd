package karma

import (
	"math/rand"
	"testing"

	"karma/internal/hw"
	"karma/internal/profiler"
	"karma/internal/unit"
)

// fuzzProfile builds a synthetic profile of k blocks whose byte and time
// quantities derive from the seed — including pathological shapes
// (zero-output blocks that cannot anchor a checkpoint, activation-free
// blocks, heavily skewed sizes) the model zoo never produces.
func fuzzProfile(seed int64, k int) *profiler.Profile {
	r := rand.New(rand.NewSource(seed))
	p := &profiler.Profile{
		Name: "fuzz",
		Node: hw.ABCINode(),
		Opts: profiler.Options{Batch: 1},
	}
	for i := 0; i < k; i++ {
		act := unit.Bytes(r.Int63n(512 * int64(unit.MiB)))
		out := unit.Bytes(0)
		switch r.Intn(3) {
		case 0: // storable boundary (anchors a checkpoint)
			out = unit.Bytes(r.Int63n(int64(act) + 1))
		case 1: // boundary larger than the stored payload (cannot anchor)
			out = act + unit.Bytes(r.Int63n(int64(unit.MiB))+1)
		}
		b := profiler.Block{
			FwdTime:       unit.Seconds(float64(r.Intn(1000)+1) * 1e-5),
			BwdTime:       unit.Seconds(float64(r.Intn(2000)+1) * 1e-5),
			ActBytes:      act,
			HeavyActBytes: unit.Bytes(r.Int63n(int64(act) + 1)),
			OutBytes:      out,
			WeightBytes:   unit.Bytes(r.Int63n(64 * int64(unit.MiB))),
		}
		p.Blocks = append(p.Blocks, b)
		p.TotalWeightBytes += b.WeightBytes
		p.TotalActBytes += b.ActBytes
	}
	return p
}

// FuzzCheckpointSegments guards the invariants the in-core hybrid
// baselines (and PR 3's capacity verdicts) rely on:
//
//   - success and failure are consistent with CheckpointFootprint — the
//     shared capacity verdict both dist backends render;
//   - a returned schedule is adaptive (no recompute when everything
//     fits), structurally sound (resident suffix, anchored checkpoint
//     boundaries), and lowers to a memory-balanced plan that simulates
//     within the budget it was built for — the budget is never
//     exceeded;
//   - every non-resident block is covered by a replay run ending at an
//     anchored boundary or the model input — all boundaries covered.
//
// Seeds live in testdata/fuzz/FuzzCheckpointSegments.
func FuzzCheckpointSegments(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(50))
	f.Add(int64(42), uint8(2), uint16(10))
	f.Add(int64(7), uint8(24), uint16(90))
	f.Add(int64(99), uint8(1), uint16(100))
	f.Add(int64(2026), uint8(16), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8, budgetPct uint16) {
		k := int(kRaw%24) + 1
		p := fuzzProfile(seed, k)
		// Budget between ~1% and ~200% of the all-resident footprint, so
		// the draw crosses all three regimes.
		pct := int64(budgetPct%200) + 1
		budget := unit.Bytes(int64(p.TotalActBytes) * pct / 100)
		if budget <= 0 {
			budget = 1
		}

		s, err := Checkpoint(p, budget)
		foot := CheckpointFootprint(p)
		if err != nil {
			// Failure must agree with the shared capacity verdict: no
			// checkpointing schedule of this profile fits the budget.
			if foot <= budget {
				t.Fatalf("Checkpoint failed (%v) but CheckpointFootprint %v fits budget %v", err, foot, budget)
			}
			return
		}
		if foot > budget && p.TotalActBytes > budget {
			t.Fatalf("Checkpoint succeeded but CheckpointFootprint %v exceeds budget %v", foot, budget)
		}

		// Adaptive: everything resident when it fits, and then exactly the
		// all-resident schedule.
		if p.TotalActBytes <= budget {
			for i, b := range s.Blocks {
				if b.Policy != Keep {
					t.Fatalf("block %d recomputes although %v fits %v", i, p.TotalActBytes, budget)
				}
			}
		}

		// Structure: a recomputed prefix, a resident suffix, anchored
		// checkpoints, and full coverage of the prefix by replay runs.
		for i, b := range s.Blocks {
			if i < s.Resident && b.Policy != Recompute {
				t.Fatalf("prefix block %d has policy %v", i, b.Policy)
			}
			if i >= s.Resident && b.Policy != Keep {
				t.Fatalf("resident block %d has policy %v", i, b.Policy)
			}
			if b.Ckpt {
				if b.Policy != Recompute {
					t.Fatalf("checkpoint on non-recomputed block %d", i)
				}
				if b.Cost.OutBytes <= 0 || b.Cost.ActBytes < b.Cost.OutBytes {
					t.Fatalf("checkpoint anchored on block %d which does not store its boundary (act %v, out %v)",
						i, b.Cost.ActBytes, b.Cost.OutBytes)
				}
			}
		}
		// Every recomputed block belongs to a run whose start replays from
		// a valid source: the model input, or an anchored checkpoint.
		for i := 0; i < s.Resident; i++ {
			start := i
			for start > 0 && s.Blocks[start-1].Policy == Recompute && !s.Blocks[start-1].Ckpt {
				start--
			}
			if start > 0 && s.Blocks[start-1].Policy == Recompute && !s.Blocks[start-1].Ckpt {
				t.Fatalf("block %d's replay run has no boundary source", i)
			}
		}

		// The schedule lowers to a balanced plan that simulates within the
		// budget it claims — the budget is never exceeded.
		pl, err := BuildPlan(s)
		if err != nil {
			t.Fatalf("BuildPlan of a Checkpoint schedule failed: %v", err)
		}
		if d := pl.MemoryDelta(); d != 0 {
			t.Fatalf("checkpoint plan leaks %v", d)
		}
		_, tl, err := pl.Simulate(s.Budget)
		if err != nil {
			t.Fatalf("checkpoint plan does not simulate within its own budget %v: %v", s.Budget, err)
		}
		if tl.PeakMem > s.Budget {
			t.Fatalf("peak memory %v exceeds budget %v", tl.PeakMem, s.Budget)
		}
	})
}
