// Package graph represents a model as a dependency DAG of layers and
// provides the analyses KARMA's workflow needs (paper Fig. 1, steps 1–2):
// shape inference, per-node cost metadata, and collapsing the DAG into a
// linear chain of segments — the atomic units the block partitioner works
// on. Residual blocks collapse into single segments; long-range skip
// connections (U-Net) are surfaced as pinned edges the planner must keep
// resident or recompute (§III-F4).
package graph

import (
	"fmt"
	"strings"

	"karma/internal/layer"
	"karma/internal/tensor"
)

// NodeID identifies a node within one Graph. IDs are dense indexes in
// insertion order, which is always a valid topological order because a
// node's inputs must exist before the node is added.
type NodeID int

// Node is one layer instance and its dataflow inputs.
type Node struct {
	ID     NodeID
	L      layer.Layer
	Inputs []NodeID

	// Filled in by Infer:
	OutShape tensor.Shape
	FwdFLOPs int64 // per sample
	Params   int64
}

// Graph is a DAG of layers under construction or analysis.
type Graph struct {
	name     string
	nodes    []*Node
	inferred bool
}

// New returns an empty graph with the given model name.
func New(name string) *Graph { return &Graph{name: name} }

// Name returns the model name.
func (g *Graph) Name() string { return g.name }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Add appends a layer whose inputs are the given existing nodes and
// returns its id. Add panics on a forward reference, which would make the
// construction order non-topological.
func (g *Graph) Add(l layer.Layer, inputs ...NodeID) NodeID {
	id := NodeID(len(g.nodes))
	for _, in := range inputs {
		if in < 0 || in >= id {
			panic(fmt.Sprintf("graph %s: node %q references invalid input %d", g.name, l.Name(), in))
		}
	}
	g.nodes = append(g.nodes, &Node{ID: id, L: l, Inputs: append([]NodeID(nil), inputs...)})
	g.inferred = false
	return id
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("graph %s: no node %d", g.name, id))
	}
	return g.nodes[id]
}

// Nodes returns all nodes in topological (insertion) order.
// The returned slice must not be mutated.
func (g *Graph) Nodes() []*Node { return g.nodes }

// fanOut returns, for every node, the number of input edges consuming
// its output (an input listed twice by one consumer counts twice).
func (g *Graph) fanOut() []int32 {
	out := make([]int32, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			out[in]++
		}
	}
	return out
}

// Output returns the unique sink node id. Validate reports an error when
// the sink is not unique; Output returns the last sink found.
func (g *Graph) Output() NodeID {
	fan := g.fanOut()
	sink := NodeID(-1)
	for id, c := range fan {
		if c == 0 {
			sink = NodeID(id)
		}
	}
	return sink
}

// Infer runs shape inference in topological order, filling in OutShape,
// FwdFLOPs and Params on every node.
func (g *Graph) Infer() error {
	var ins []tensor.Shape // reused per node: layers do not retain it
	for _, n := range g.nodes {
		ins = ins[:0]
		for _, in := range n.Inputs {
			s := g.nodes[in].OutShape
			if s == nil {
				return fmt.Errorf("graph %s: node %q input %q has no shape", g.name, n.L.Name(), g.nodes[in].L.Name())
			}
			ins = append(ins, s)
		}
		out, err := n.L.InferShape(ins)
		if err != nil {
			return fmt.Errorf("graph %s: %w", g.name, err)
		}
		n.OutShape = out
		n.FwdFLOPs = n.L.FwdFLOPs(ins, out)
		n.Params = n.L.ParamCount(ins)
	}
	g.inferred = true
	return nil
}

// Validate checks structural invariants: at least one node, a unique sink,
// every non-input node has inputs, and every node is reachable from an
// input layer. Validate requires Infer to have succeeded.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("graph %s: empty", g.name)
	}
	if !g.inferred {
		return fmt.Errorf("graph %s: Validate before successful Infer", g.name)
	}
	fan := g.fanOut()
	sinks := 0
	for _, n := range g.nodes {
		if fan[n.ID] == 0 {
			sinks++
		}
		_, isInput := n.L.(*layer.Input)
		if !isInput && len(n.Inputs) == 0 {
			return fmt.Errorf("graph %s: non-input node %q has no inputs", g.name, n.L.Name())
		}
		if isInput && len(n.Inputs) != 0 {
			return fmt.Errorf("graph %s: input node %q has inputs", g.name, n.L.Name())
		}
	}
	if sinks != 1 {
		return fmt.Errorf("graph %s: %d sinks, want exactly 1", g.name, sinks)
	}
	return nil
}

// ParamCount returns the total number of trainable parameters.
func (g *Graph) ParamCount() int64 {
	g.mustInferred("ParamCount")
	var n int64
	for _, node := range g.nodes {
		n += node.Params
	}
	return n
}

// FwdFLOPs returns total forward operations per sample.
func (g *Graph) FwdFLOPs() int64 {
	g.mustInferred("FwdFLOPs")
	var n int64
	for _, node := range g.nodes {
		n += node.FwdFLOPs
	}
	return n
}

func (g *Graph) mustInferred(op string) {
	if !g.inferred {
		panic(fmt.Sprintf("graph %s: %s before Infer", g.name, op))
	}
}

// Edge is a dataflow edge between nodes.
type Edge struct {
	From, To NodeID
}

// Segment is a maximal run of consecutive nodes (in topological order)
// that the planner treats as an atomic unit. Within a segment arbitrary
// local fan-out is allowed (e.g. a residual block); between ordinary
// adjacent segments exactly one activation crosses. PinnedIn lists edges
// entering this segment from a non-adjacent earlier segment — the U-Net
// situation of §III-F4 — whose source activations must stay resident, be
// swapped separately, or be recomputed. The Nodes of one Segments call
// share a backing array; each slice is capacity-limited, so appending to
// it copies instead of overwriting the next segment.
type Segment struct {
	Index    int
	Nodes    []NodeID
	PinnedIn []Edge
}

// Segments collapses the DAG into a chain of segments. maxOpen controls
// how aggressively the chain is cut: a cut is placed after node i whenever
// the dataflow edges crossing the cut originate from at most maxOpen
// distinct producers — i.e. at most maxOpen live tensors cross (a single
// tensor with fan-out, such as a residual trunk output, still counts
// once). maxOpen = 1 yields the strict linear chain; larger values split
// long-skip regions (U-Net) and surface the extra crossing edges as
// PinnedIn on the destination segment. maxOpen < 1 is treated as 1.
func (g *Graph) Segments(maxOpen int) []Segment {
	if maxOpen < 1 {
		maxOpen = 1
	}
	g.mustInferred("Segments")
	// Sweep the topological order keeping, per producer, the number of
	// unprocessed consumer edges of its output; open counts the
	// producers with edges still pending.
	pending := g.fanOut()
	flat := make([]NodeID, len(g.nodes))
	var segs []Segment
	open, start := 0, 0
	for i, n := range g.nodes {
		for _, in := range n.Inputs {
			if pending[in]--; pending[in] == 0 {
				open--
			}
		}
		if pending[i] > 0 {
			open++
		}
		flat[i] = n.ID
		// After the last node every edge is consumed (open == 0), so the
		// final segment always closes here.
		if open <= maxOpen {
			segs = append(segs, Segment{Index: len(segs), Nodes: flat[start : i+1 : i+1]})
			start = i + 1
		}
	}

	// Attach pinned edges: an edge whose producer lives in segment p and
	// whose consumer lives in segment q > p+1 skips at least one segment.
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

// SegmentStats aggregates cost metadata over a segment.
type SegmentStats struct {
	FwdFLOPs int64 // per sample
	BwdFLOPs int64 // per sample, via per-layer backward factors
	Params   int64
	// ActElems is the number of per-sample activation elements produced
	// inside the segment (each node's output), the quantity that must be
	// kept (or recomputed) for the backward pass.
	ActElems int64
	// OutElems is the per-sample size of the segment's final activation,
	// the tensor crossing to the next segment.
	OutElems int64
}

// Stats computes aggregate cost metadata for a segment.
func (g *Graph) Stats(s Segment) SegmentStats {
	g.mustInferred("Stats")
	var st SegmentStats
	for _, id := range s.Nodes {
		n := g.nodes[id]
		st.FwdFLOPs += n.FwdFLOPs
		st.BwdFLOPs += int64(float64(n.FwdFLOPs) * n.L.BwdFactor())
		st.Params += n.Params
		st.ActElems += n.OutShape.Elems()
	}
	last := g.nodes[s.Nodes[len(s.Nodes)-1]]
	st.OutElems = last.OutShape.Elems()
	return st
}

// DOT renders the graph in Graphviz dot format, one node per layer with
// its inferred output shape, for visual inspection of the dependency
// structure KARMA plans over (Fig. 1's dependency-graph step).
func (g *Graph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", g.name)
	for _, n := range g.nodes {
		label := n.L.Name()
		if n.OutShape != nil {
			label += "\\n" + n.OutShape.String()
		}
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", n.ID, label)
	}
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", in, n.ID)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
