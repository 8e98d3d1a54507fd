package graph

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"karma/internal/layer"
	"karma/internal/tensor"
)

// chain builds input -> n conv/relu pairs.
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	g := New("chain")
	id := g.Add(&layer.Input{LayerName: "in", Shape: tensor.CHW(3, 32, 32)})
	for i := 0; i < n; i++ {
		id = g.Add(&layer.Conv2D{LayerName: name("conv", i), OutChannels: 16, K: 3, Stride: 1, Pad: 1}, id)
		id = g.Add(&layer.ReLU{LayerName: name("relu", i)}, id)
	}
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return g
}

func name(p string, i int) string { return p + string(rune('a'+i)) }

// residual builds input -> conv -> [conv,conv]+skip add -> relu.
func residual(t *testing.T) *Graph {
	t.Helper()
	g := New("res")
	in := g.Add(&layer.Input{LayerName: "in", Shape: tensor.CHW(16, 8, 8)})
	c0 := g.Add(&layer.Conv2D{LayerName: "c0", OutChannels: 16, K: 3, Stride: 1, Pad: 1}, in)
	c1 := g.Add(&layer.Conv2D{LayerName: "c1", OutChannels: 16, K: 3, Stride: 1, Pad: 1}, c0)
	c2 := g.Add(&layer.Conv2D{LayerName: "c2", OutChannels: 16, K: 3, Stride: 1, Pad: 1}, c1)
	add := g.Add(&layer.Add{LayerName: "add"}, c0, c2)
	g.Add(&layer.ReLU{LayerName: "out"}, add)
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return g
}

func TestAddForwardReferencePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on forward reference")
		}
	}()
	g := New("bad")
	g.Add(&layer.ReLU{LayerName: "r"}, 5)
}

func TestInferAndValidate(t *testing.T) {
	g := chain(t, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Len() != 7 {
		t.Errorf("Len = %d, want 7", g.Len())
	}
	out := g.Node(g.Output())
	if !out.OutShape.Equal(tensor.CHW(16, 32, 32)) {
		t.Errorf("output shape = %v", out.OutShape)
	}
}

func TestValidateBeforeInfer(t *testing.T) {
	g := New("g")
	g.Add(&layer.Input{LayerName: "in", Shape: tensor.Vec(4)})
	if err := g.Validate(); err == nil {
		t.Error("Validate before Infer should error")
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New("e").Validate(); err == nil {
		t.Error("empty graph should fail validation")
	}
}

func TestValidateMultipleSinks(t *testing.T) {
	g := New("2sink")
	in := g.Add(&layer.Input{LayerName: "in", Shape: tensor.Vec(4)})
	g.Add(&layer.ReLU{LayerName: "a"}, in)
	g.Add(&layer.Softmax{LayerName: "b"}, in)
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if err := g.Validate(); err == nil {
		t.Error("two sinks should fail validation")
	}
}

func TestInferShapeError(t *testing.T) {
	g := New("bad")
	in := g.Add(&layer.Input{LayerName: "in", Shape: tensor.Vec(10)})
	g.Add(&layer.Conv2D{LayerName: "c", OutChannels: 4, K: 3}, in) // conv on vector
	if err := g.Infer(); err == nil {
		t.Error("Infer should propagate shape errors")
	}
}

func TestFLOPsAndParams(t *testing.T) {
	g := chain(t, 2)
	// conv a: 16*32*32 out elems * 3*3*3 taps; conv b: 16*32*32 * 3*3*16.
	convA := int64(16*32*32) * 27
	convB := int64(16*32*32) * 144
	relu := int64(16 * 32 * 32)
	want := convA + convB + 2*relu
	if got := g.FwdFLOPs(); got != want {
		t.Errorf("FwdFLOPs = %d, want %d", got, want)
	}
	wantP := int64(3*3*3*16 + 3*3*16*16)
	if got := g.ParamCount(); got != wantP {
		t.Errorf("ParamCount = %d, want %d", got, wantP)
	}
}

func TestSegmentsLinearChain(t *testing.T) {
	g := chain(t, 4)
	segs := g.Segments(1)
	// A pure chain cuts after every node.
	if len(segs) != g.Len() {
		t.Errorf("segments = %d, want %d", len(segs), g.Len())
	}
	for _, s := range segs {
		if len(s.PinnedIn) != 0 {
			t.Errorf("segment %d has pinned edges %v", s.Index, s.PinnedIn)
		}
	}
}

func TestSegmentsResidualCollapse(t *testing.T) {
	g := residual(t)
	segs := g.Segments(1)
	// in | c0 (single live tensor crosses, with fan-out to c1 and add) |
	// c1..add (the skip keeps two producers live inside) | out.
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4: %+v", len(segs), segs)
	}
	body := segs[2]
	if len(body.Nodes) != 3 {
		t.Errorf("residual body = %v, want 3 nodes (c1,c2,add)", body.Nodes)
	}
}

func TestSegmentsPinnedEdges(t *testing.T) {
	// A long skip: in -> a -> b -> c -> cat(a-skip).
	g := New("skip")
	in := g.Add(&layer.Input{LayerName: "in", Shape: tensor.CHW(8, 8, 8)})
	a := g.Add(&layer.Conv2D{LayerName: "a", OutChannels: 8, K: 3, Stride: 1, Pad: 1}, in)
	b := g.Add(&layer.Conv2D{LayerName: "b", OutChannels: 8, K: 3, Stride: 1, Pad: 1}, a)
	c := g.Add(&layer.Conv2D{LayerName: "c", OutChannels: 8, K: 3, Stride: 1, Pad: 1}, b)
	g.Add(&layer.Concat{LayerName: "cat"}, a, c)
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	// With maxOpen=2 the chain can cut inside the skip region; the edge
	// a->cat must surface as pinned on the segment holding cat.
	segs := g.Segments(2)
	var pinned int
	for _, s := range segs {
		pinned += len(s.PinnedIn)
	}
	if pinned == 0 {
		t.Errorf("expected a pinned edge for the long skip; segments: %+v", segs)
	}
}

func TestSegmentsCoverAllNodesOnce(t *testing.T) {
	g := residual(t)
	for _, maxOpen := range []int{1, 2, 3} {
		seen := map[NodeID]int{}
		for _, s := range g.Segments(maxOpen) {
			for _, id := range s.Nodes {
				seen[id]++
			}
		}
		if len(seen) != g.Len() {
			t.Errorf("maxOpen=%d: covered %d nodes, want %d", maxOpen, len(seen), g.Len())
		}
		for id, c := range seen {
			if c != 1 {
				t.Errorf("maxOpen=%d: node %d appears %d times", maxOpen, id, c)
			}
		}
	}
}

func TestStats(t *testing.T) {
	g := chain(t, 1)
	segs := g.Segments(1)
	var fwd int64
	for _, s := range segs {
		st := g.Stats(s)
		fwd += st.FwdFLOPs
		if st.OutElems <= 0 || st.ActElems < st.OutElems {
			t.Errorf("segment %d: bad elems %+v", s.Index, st)
		}
	}
	if fwd != g.FwdFLOPs() {
		t.Errorf("segment FLOPs sum %d != graph %d", fwd, g.FwdFLOPs())
	}
}

func TestStatsBwdFactor(t *testing.T) {
	g := chain(t, 1)
	segs := g.Segments(1)
	var bwd, fwd int64
	for _, s := range segs {
		st := g.Stats(s)
		bwd += st.BwdFLOPs
		fwd += st.FwdFLOPs
	}
	if bwd <= fwd {
		t.Errorf("backward work %d should exceed forward %d (conv factor 2)", bwd, fwd)
	}
}

// Property: for any chain length, segment count equals node count and the
// sum of per-segment FLOPs equals the graph total.
func TestSegmentsPartitionProperty(t *testing.T) {
	f := func(n uint8) bool {
		g := New("p")
		id := g.Add(&layer.Input{LayerName: "in", Shape: tensor.CHW(4, 8, 8)})
		k := int(n)%6 + 1
		for i := 0; i < k; i++ {
			id = g.Add(&layer.ReLU{LayerName: name("r", i)}, id)
		}
		if err := g.Infer(); err != nil {
			return false
		}
		segs := g.Segments(1)
		if len(segs) != g.Len() {
			return false
		}
		var sum int64
		for _, s := range segs {
			sum += g.Stats(s).FwdFLOPs
		}
		return sum == g.FwdFLOPs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDOT(t *testing.T) {
	g := residual(t)
	dot := g.DOT()
	for _, want := range []string{"digraph", "rankdir", "c0", "add", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// One edge line per input reference: in->c0, c0->c1, c1->c2,
	// c0->add, c2->add, add->out = 6 edges.
	if got := strings.Count(dot, "->"); got != 6 {
		t.Errorf("edges = %d, want 6", got)
	}
	// Shapes annotated after inference.
	if !strings.Contains(dot, "16x8x8") {
		t.Error("DOT should annotate inferred shapes")
	}
}

// referenceSegments is the original map-based Segments: per producer, a
// map entry counting unprocessed consumers, and a fresh slice per
// segment. FuzzSegments holds the count-slice implementation to it.
func referenceSegments(g *Graph, maxOpen int) []Segment {
	if maxOpen < 1 {
		maxOpen = 1
	}
	cons := make([][]NodeID, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			cons[in] = append(cons[in], n.ID)
		}
	}
	pending := make(map[NodeID]int)
	var segs []Segment
	var cur []NodeID
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			if pending[in]--; pending[in] == 0 {
				delete(pending, in)
			}
		}
		if c := len(cons[n.ID]); c > 0 {
			pending[n.ID] = c
		}
		cur = append(cur, n.ID)
		if len(pending) <= maxOpen {
			segs = append(segs, Segment{Index: len(segs), Nodes: cur})
			cur = nil
		}
	}
	if len(cur) > 0 {
		segs = append(segs, Segment{Index: len(segs), Nodes: cur})
	}
	segOf := make([]int, len(g.nodes))
	for _, s := range segs {
		for _, id := range s.Nodes {
			segOf[id] = s.Index
		}
	}
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			if segOf[n.ID] > segOf[in]+1 {
				s := &segs[segOf[n.ID]]
				s.PinnedIn = append(s.PinnedIn, Edge{From: in, To: n.ID})
			}
		}
	}
	return segs
}

// fuzzDAG builds a shape-preserving DAG from ops, one construct per
// byte (low two bits pick it, the rest parameterize it):
//
//	0: chain      relu(last)
//	1: residual   add(last, relu(relu(last)))     — local fan-out
//	2: long skip  add(last, node[b>>2 % len])     — U-Net style skip
//	3: repeat     add(last, last)                 — one input listed twice
//
// Skipped-over nodes may stay unconsumed, so the DAG can have several
// sinks; Segments does not require a unique one.
func fuzzDAG(ops []byte) *Graph {
	g := New("fuzz")
	last := g.Add(&layer.Input{LayerName: "in", Shape: tensor.CHW(2, 4, 4)})
	for i, b := range ops {
		if i == 64 {
			break
		}
		switch b & 3 {
		case 0:
			last = g.Add(&layer.ReLU{LayerName: "r"}, last)
		case 1:
			a := g.Add(&layer.ReLU{LayerName: "ra"}, last)
			c := g.Add(&layer.ReLU{LayerName: "rc"}, a)
			last = g.Add(&layer.Add{LayerName: "res"}, last, c)
		case 2:
			last = g.Add(&layer.Add{LayerName: "skip"}, last, NodeID(int(b>>2)%g.Len()))
		case 3:
			last = g.Add(&layer.Add{LayerName: "dup"}, last, last)
		}
	}
	if err := g.Infer(); err != nil {
		panic(err)
	}
	return g
}

// FuzzSegments: on random topological DAGs (chains, residual fan-out,
// long skips, repeated inputs) and every maxOpen in 0..3, Segments
// matches the map-based reference exactly — indexes, node lists and
// pinned edges.
func FuzzSegments(f *testing.F) {
	f.Add([]byte{0, 0, 0}, byte(1))
	f.Add([]byte{1, 1, 1, 0}, byte(1))
	f.Add([]byte{0, 0, 0, 0, 2, 0, 6, 10}, byte(2))
	f.Add([]byte{3, 1, 3, 2}, byte(0))
	f.Fuzz(func(t *testing.T, ops []byte, maxOpen byte) {
		g := fuzzDAG(ops)
		mo := int(maxOpen % 4)
		got, want := g.Segments(mo), referenceSegments(g, mo)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("maxOpen=%d ops=%v:\n got  %+v\n want %+v", mo, ops, got, want)
		}
	})
}

// TestSegmentsNodesIndependent: segments share one backing array, but
// appending to one segment's Nodes must not overwrite its neighbour.
func TestSegmentsNodesIndependent(t *testing.T) {
	g := chain(t, 2)
	segs := g.Segments(1)
	next := segs[1].Nodes[0]
	segs[0].Nodes = append(segs[0].Nodes, 99)
	if segs[1].Nodes[0] != next {
		t.Fatalf("append to segment 0 overwrote segment 1: %v", segs[1].Nodes)
	}
}
