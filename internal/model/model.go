// Package model is the model zoo used in the paper's evaluation
// (Table III): ResNet-50/200 and VGG16 on ImageNet, WRN-28-10 and
// ResNet-1001 on CIFAR-10, U-Net on ssTEM, plus the Megatron-LM and
// Turing-NLG Transformer configurations of Table IV and Fig. 8.
//
// Builders return fully shape-inferred graphs and panic on construction
// errors (the architectures are fixed; a failure is a programming bug,
// not an input error).
package model

import (
	"fmt"
	"sort"

	"karma/internal/graph"
	"karma/internal/layer"
	"karma/internal/tensor"
	"karma/internal/unit"
)

func finish(g *graph.Graph) *graph.Graph {
	if err := g.Infer(); err != nil {
		panic(fmt.Sprintf("model %s: %v", g.Name(), err))
	}
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("model %s: %v", g.Name(), err))
	}
	return g
}

// convBNReLU appends conv(k,s,p)+BN+ReLU and returns the ReLU's id.
func convBNReLU(g *graph.Graph, prefix string, in graph.NodeID, cout, k, stride, pad int) graph.NodeID {
	c := g.Add(&layer.Conv2D{LayerName: prefix + ".conv", OutChannels: cout, K: k, Stride: stride, Pad: pad}, in)
	b := g.Add(&layer.BatchNorm{LayerName: prefix + ".bn"}, c)
	return g.Add(&layer.ReLU{LayerName: prefix + ".relu"}, b)
}

// ---------------------------------------------------------------------------
// ResNet family (ImageNet bottleneck variants)
// ---------------------------------------------------------------------------

// bottleneck appends one ImageNet bottleneck residual block
// (1x1 reduce, 3x3, 1x1 expand, projection shortcut when needed).
func bottleneck(g *graph.Graph, prefix string, in graph.NodeID, mid, out, stride int, project bool) graph.NodeID {
	a := convBNReLU(g, prefix+".a", in, mid, 1, 1, 0)
	b := convBNReLU(g, prefix+".b", a, mid, 3, stride, 1)
	c := g.Add(&layer.Conv2D{LayerName: prefix + ".c.conv", OutChannels: out, K: 1, Stride: 1, Pad: 0}, b)
	cbn := g.Add(&layer.BatchNorm{LayerName: prefix + ".c.bn"}, c)
	skip := in
	if project {
		p := g.Add(&layer.Conv2D{LayerName: prefix + ".proj.conv", OutChannels: out, K: 1, Stride: stride, Pad: 0}, in)
		skip = g.Add(&layer.BatchNorm{LayerName: prefix + ".proj.bn"}, p)
	}
	add := g.Add(&layer.Add{LayerName: prefix + ".add"}, skip, cbn)
	return g.Add(&layer.ReLU{LayerName: prefix + ".relu"}, add)
}

// resNetImageNet builds an ImageNet bottleneck ResNet with the given
// per-stage block counts.
func resNetImageNet(name string, blocks [4]int) *graph.Graph {
	g := graph.New(name)
	id := g.Add(&layer.Input{LayerName: "input", Shape: tensor.CHW(3, 224, 224)})
	id = convBNReLU(g, "stem", id, 64, 7, 2, 3)
	id = g.Add(&layer.Pool2D{LayerName: "stem.pool", Kind: layer.MaxPool, K: 3, Stride: 2}, id)
	mids := [4]int{64, 128, 256, 512}
	outs := [4]int{256, 512, 1024, 2048}
	for s := 0; s < 4; s++ {
		for b := 0; b < blocks[s]; b++ {
			stride := 1
			if b == 0 && s > 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("stage%d.block%d", s+1, b)
			id = bottleneck(g, prefix, id, mids[s], outs[s], stride, b == 0)
		}
	}
	id = g.Add(&layer.GlobalAvgPool{LayerName: "gap"}, id)
	id = g.Add(&layer.Dense{LayerName: "fc", OutFeatures: 1000}, id)
	g.Add(&layer.Softmax{LayerName: "softmax"}, id)
	return finish(g)
}

// ResNet50 returns the 50-layer ImageNet ResNet (>25M parameters).
func ResNet50() *graph.Graph { return resNetImageNet("resnet50", [4]int{3, 4, 6, 3}) }

// ResNet200 returns the 200-layer ImageNet ResNet (>64M parameters).
func ResNet200() *graph.Graph { return resNetImageNet("resnet200", [4]int{3, 24, 36, 3}) }

// ResNet1001 returns the 1001-layer CIFAR-10 bottleneck ResNet
// (3 stages of 111 blocks; >10M parameters).
func ResNet1001() *graph.Graph {
	g := graph.New("resnet1001")
	id := g.Add(&layer.Input{LayerName: "input", Shape: tensor.CHW(3, 32, 32)})
	id = convBNReLU(g, "stem", id, 16, 3, 1, 1)
	mids := [3]int{16, 32, 64}
	outs := [3]int{64, 128, 256}
	const blocksPerStage = 111
	for s := 0; s < 3; s++ {
		for b := 0; b < blocksPerStage; b++ {
			stride := 1
			if b == 0 && s > 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("stage%d.block%d", s+1, b)
			id = bottleneck(g, prefix, id, mids[s], outs[s], stride, b == 0)
		}
	}
	id = g.Add(&layer.GlobalAvgPool{LayerName: "gap"}, id)
	id = g.Add(&layer.Dense{LayerName: "fc", OutFeatures: 10}, id)
	g.Add(&layer.Softmax{LayerName: "softmax"}, id)
	return finish(g)
}

// ---------------------------------------------------------------------------
// WRN-28-10 (CIFAR-10 wide basic blocks)
// ---------------------------------------------------------------------------

// wideBasic appends one WRN basic block (3x3, 3x3, residual add).
func wideBasic(g *graph.Graph, prefix string, in graph.NodeID, out, stride int, project bool) graph.NodeID {
	a := convBNReLU(g, prefix+".a", in, out, 3, stride, 1)
	c := g.Add(&layer.Conv2D{LayerName: prefix + ".b.conv", OutChannels: out, K: 3, Stride: 1, Pad: 1}, a)
	cbn := g.Add(&layer.BatchNorm{LayerName: prefix + ".b.bn"}, c)
	skip := in
	if project {
		skip = g.Add(&layer.Conv2D{LayerName: prefix + ".proj", OutChannels: out, K: 1, Stride: stride, Pad: 0}, in)
	}
	add := g.Add(&layer.Add{LayerName: prefix + ".add"}, skip, cbn)
	return g.Add(&layer.ReLU{LayerName: prefix + ".relu"}, add)
}

// WRN28_10 returns the Wide ResNet 28-10 for CIFAR-10 (>36M parameters).
func WRN28_10() *graph.Graph {
	g := graph.New("wrn-28-10")
	id := g.Add(&layer.Input{LayerName: "input", Shape: tensor.CHW(3, 32, 32)})
	id = convBNReLU(g, "stem", id, 16, 3, 1, 1)
	widths := [3]int{160, 320, 640}
	const blocksPerStage = 4 // (28-4)/6
	for s := 0; s < 3; s++ {
		for b := 0; b < blocksPerStage; b++ {
			stride := 1
			if b == 0 && s > 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("stage%d.block%d", s+1, b)
			id = wideBasic(g, prefix, id, widths[s], stride, b == 0)
		}
	}
	id = g.Add(&layer.GlobalAvgPool{LayerName: "gap"}, id)
	id = g.Add(&layer.Dense{LayerName: "fc", OutFeatures: 10}, id)
	g.Add(&layer.Softmax{LayerName: "softmax"}, id)
	return finish(g)
}

// ---------------------------------------------------------------------------
// VGG16 (ImageNet)
// ---------------------------------------------------------------------------

// VGG16 returns the 16-weight-layer VGG network (>130M parameters,
// dominated by the classifier head).
func VGG16() *graph.Graph {
	g := graph.New("vgg16")
	id := g.Add(&layer.Input{LayerName: "input", Shape: tensor.CHW(3, 224, 224)})
	cfg := []struct {
		convs, ch int
	}{{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512}}
	for s, st := range cfg {
		for c := 0; c < st.convs; c++ {
			prefix := fmt.Sprintf("stage%d.conv%d", s+1, c)
			cv := g.Add(&layer.Conv2D{LayerName: prefix, OutChannels: st.ch, K: 3, Stride: 1, Pad: 1, Bias: true}, id)
			id = g.Add(&layer.ReLU{LayerName: prefix + ".relu"}, cv)
		}
		id = g.Add(&layer.Pool2D{LayerName: fmt.Sprintf("stage%d.pool", s+1), Kind: layer.MaxPool, K: 2, Stride: 2}, id)
	}
	id = g.Add(&layer.Flatten{LayerName: "flatten"}, id)
	id = g.Add(&layer.Dense{LayerName: "fc1", OutFeatures: 4096}, id)
	id = g.Add(&layer.ReLU{LayerName: "fc1.relu"}, id)
	id = g.Add(&layer.Dropout{LayerName: "fc1.drop", P: 0.5}, id)
	id = g.Add(&layer.Dense{LayerName: "fc2", OutFeatures: 4096}, id)
	id = g.Add(&layer.ReLU{LayerName: "fc2.relu"}, id)
	id = g.Add(&layer.Dropout{LayerName: "fc2.drop", P: 0.5}, id)
	id = g.Add(&layer.Dense{LayerName: "fc3", OutFeatures: 1000}, id)
	g.Add(&layer.Softmax{LayerName: "softmax"}, id)
	return finish(g)
}

// ---------------------------------------------------------------------------
// U-Net (ssTEM segmentation)
// ---------------------------------------------------------------------------

// UNet returns the 4-level U-Net (>31M parameters) with skip connections
// from the contracting to the expansive path — the non-affine connections
// that drive KARMA's recompute decisions in §III-F4. Padded 3x3 convs keep
// the spatial bookkeeping exact for a 512x512 single-channel input.
func UNet() *graph.Graph {
	g := graph.New("unet")
	id := g.Add(&layer.Input{LayerName: "input", Shape: tensor.CHW(1, 512, 512)})
	widths := []int{64, 128, 256, 512}
	var skips []graph.NodeID
	// Contracting path.
	for lvl, w := range widths {
		id = convBNReLU(g, fmt.Sprintf("down%d.a", lvl), id, w, 3, 1, 1)
		id = convBNReLU(g, fmt.Sprintf("down%d.b", lvl), id, w, 3, 1, 1)
		skips = append(skips, id)
		id = g.Add(&layer.Pool2D{LayerName: fmt.Sprintf("down%d.pool", lvl), Kind: layer.MaxPool, K: 2, Stride: 2}, id)
	}
	// Bottleneck.
	id = convBNReLU(g, "mid.a", id, 1024, 3, 1, 1)
	id = convBNReLU(g, "mid.b", id, 1024, 3, 1, 1)
	// Expansive path.
	for lvl := len(widths) - 1; lvl >= 0; lvl-- {
		w := widths[lvl]
		id = g.Add(&layer.Deconv2D{LayerName: fmt.Sprintf("up%d.deconv", lvl), OutChannels: w, K: 2, Stride: 2}, id)
		id = g.Add(&layer.Concat{LayerName: fmt.Sprintf("up%d.cat", lvl)}, skips[lvl], id)
		id = convBNReLU(g, fmt.Sprintf("up%d.a", lvl), id, w, 3, 1, 1)
		id = convBNReLU(g, fmt.Sprintf("up%d.b", lvl), id, w, 3, 1, 1)
	}
	id = g.Add(&layer.Conv2D{LayerName: "head", OutChannels: 2, K: 1, Stride: 1, Pad: 0, Bias: true}, id)
	g.Add(&layer.Softmax{LayerName: "softmax"}, id)
	return finish(g)
}

// ---------------------------------------------------------------------------
// Transformer language models (Megatron-LM, Turing-NLG)
// ---------------------------------------------------------------------------

// TransformerConfig parameterizes a GPT-2-style decoder language model as
// in Table IV of the paper (H = hidden size, A = attention heads,
// L = layers).
type TransformerConfig struct {
	Name   string `json:"name,omitempty"`
	Hidden int    `json:"hidden"`
	Heads  int    `json:"heads"`
	Layers int    `json:"layers"`
	Seq    int    `json:"seq"`
	Vocab  int    `json:"vocab"`
}

// TransformerByName returns the named transformer configuration: the
// five Table IV Megatron-LM sizes or the Fig. 8 Turing-NLG 17B. It is
// the registry request-driven callers (karma-serve) resolve config
// names against.
func TransformerByName(name string) (TransformerConfig, bool) {
	for _, c := range MegatronConfigs() {
		if c.Name == name {
			return c, true
		}
	}
	if t := TuringNLG(); t.Name == name {
		return t, true
	}
	return TransformerConfig{}, false
}

// Validate's dimension caps, far above every shipped configuration
// (at most hidden 4256, 78 layers, seq 2048, vocab 52000).
const maxHidden, maxSeq, maxVocab, maxLayers = 1 << 16, 1 << 16, 1 << 22, 1 << 12

// Validate rejects configurations the builders cannot construct (they
// panic on them) or whose sizes overflow: non-positive or capped
// dimensions, and a hidden size the attention heads do not divide.
func (c TransformerConfig) Validate() error {
	if c.Hidden <= 0 || c.Heads <= 0 || c.Layers <= 0 || c.Seq <= 0 || c.Vocab <= 0 {
		return fmt.Errorf("transformer dimensions must be positive: %+v", c)
	}
	if c.Hidden > maxHidden || c.Seq > maxSeq || c.Vocab > maxVocab || c.Layers > maxLayers {
		return fmt.Errorf("transformer dimensions exceed the caps (hidden and seq %d, vocab %d, layers %d): %+v",
			maxHidden, maxVocab, maxLayers, c)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("transformer hidden %d is not a multiple of heads %d", c.Hidden, c.Heads)
	}
	return nil
}

// Params returns the approximate trainable parameter count
// (12·L·H² for the blocks plus the embedding), the quantity the paper's
// Table IV "P" column reports.
func (c TransformerConfig) Params() int64 {
	h := int64(c.Hidden)
	return 12*int64(c.Layers)*h*h + int64(c.Vocab)*h
}

// ParamBytes returns the model-weight footprint at the given training
// precision — Params() at the regime's element size. The fp32 master
// copy of mixed precision is optimizer state, not model weights; add
// prec.MasterBytes of this quantity where the optimizer's residency
// matters (see internal/dist).
func (c TransformerConfig) ParamBytes(prec tensor.Precision) unit.Bytes {
	return unit.Bytes(c.Params()) * prec.DType().Size()
}

// Transformer builds the decoder LM graph for the configuration.
func Transformer(cfg TransformerConfig) *graph.Graph {
	g := graph.New(cfg.Name)
	id := g.Add(&layer.Input{LayerName: "tokens", Shape: tensor.Vec(cfg.Seq)})
	id = g.Add(&layer.Embedding{LayerName: "embed", Vocab: cfg.Vocab, Dim: cfg.Hidden}, id)
	for l := 0; l < cfg.Layers; l++ {
		p := fmt.Sprintf("layer%d", l)
		ln1 := g.Add(&layer.LayerNorm{LayerName: p + ".ln1"}, id)
		attn := g.Add(&layer.SelfAttention{LayerName: p + ".attn", Heads: cfg.Heads}, ln1)
		res1 := g.Add(&layer.Add{LayerName: p + ".res1"}, id, attn)
		ln2 := g.Add(&layer.LayerNorm{LayerName: p + ".ln2"}, res1)
		ff1 := g.Add(&layer.Dense{LayerName: p + ".ff1", OutFeatures: 4 * cfg.Hidden}, ln2)
		gelu := g.Add(&layer.GELU{LayerName: p + ".gelu"}, ff1)
		ff2 := g.Add(&layer.Dense{LayerName: p + ".ff2", OutFeatures: cfg.Hidden}, gelu)
		id = g.Add(&layer.Add{LayerName: p + ".res2"}, res1, ff2)
	}
	id = g.Add(&layer.LayerNorm{LayerName: "final.ln"}, id)
	// The LM head shares the embedding matrix (weight tying); modeled as a
	// zero-parameter position-wise softmax over hidden features to avoid
	// double-counting the embedding parameters.
	g.Add(&layer.Softmax{LayerName: "lm-head"}, id)
	return finish(g)
}

// Shard is a 1/mp slice of a Transformer under Megatron-LM tensor
// parallelism: every attention and MLP block splits column-parallel then
// row-parallel across the MP group, the embedding shards over the
// vocabulary, and the per-sample layer costs and intermediate tensor
// sizes all reflect the 1/mp share. The row-parallel outputs are partial
// sums, so the graph alone is not a runnable model — AllReduce marks
// where the MP group must synchronize.
type Shard struct {
	Graph  *graph.Graph
	Config TransformerConfig
	// MP is the tensor-parallel degree the shard was built for.
	MP int
	// AllReduce lists the nodes whose outputs are MP-group partial sums:
	// the row-parallel attention projection and second MLP GEMM of every
	// transformer layer (the two per-layer boundaries of Megatron-LM's
	// partitioning). Each costs one all-reduce of the boundary activation
	// in the forward pass and one of the matching input gradient in the
	// backward pass.
	AllReduce []graph.NodeID
	// EmbedAllReduce is the vocab-parallel embedding output, a forward-only
	// all-reduce (token indices carry no gradient). -1 when mp == 1.
	EmbedAllReduce graph.NodeID
}

// ceilDiv is integer division rounding up.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// attentionCore returns the weightless middle of a sharded attention
// block: scaled dot-product scores plus the value product over the
// shard's {seq, 3*hs} QKV slab, producing the {seq, hs} pre-projection
// context (§III-C.6's 2·S²·d term, at the shard's width).
func attentionCore(name string, seq, hs int) *layer.Custom {
	return &layer.Custom{
		LayerName: name,
		Infer: func(in []tensor.Shape) (tensor.Shape, error) {
			if len(in) != 1 || in[0].Rank() != 2 || in[0][1] != 3*hs {
				return nil, fmt.Errorf("layer %s: want {seq,%d} QKV input, got %v", name, 3*hs, in)
			}
			return tensor.Shape{in[0][0], hs}, nil
		},
		FLOPs: func(in []tensor.Shape, out tensor.Shape) int64 {
			// Scores S·S·hs plus the value product S·S·hs.
			return 2 * int64(seq) * int64(seq) * int64(hs)
		},
		Backward: 2.0,
	}
}

// TransformerShard builds one MP shard of the decoder LM: the per-layer
// tensor-parallel slice each GPU of a Megatron-LM MP group executes. With
// mp == 1 it is the full model in sharded form (decomposed attention, no
// collectives). The attention block becomes a column-parallel QKV
// projection, the weightless core, and a row-parallel output projection;
// the MLP becomes a column-parallel expansion and a row-parallel
// contraction; hidden slices round up when mp does not divide the width.
// TransformerShard panics on non-positive mp (a programming bug, matching
// the other builders).
func TransformerShard(cfg TransformerConfig, mp int) *Shard {
	if mp < 1 {
		panic(fmt.Sprintf("model %s: non-positive MP factor %d", cfg.Name, mp))
	}
	hs := ceilDiv(cfg.Hidden, mp)   // per-shard attention/head width
	fs := ceilDiv(4*cfg.Hidden, mp) // per-shard MLP expansion width
	vs := ceilDiv(cfg.Vocab, mp)    // per-shard vocabulary slice
	name := cfg.Name
	if mp > 1 {
		name = fmt.Sprintf("%s/mp%d", cfg.Name, mp)
	}
	g := graph.New(name)
	sh := &Shard{Graph: g, Config: cfg, MP: mp, EmbedAllReduce: -1}
	id := g.Add(&layer.Input{LayerName: "tokens", Shape: tensor.Vec(cfg.Seq)})
	id = g.Add(&layer.Embedding{LayerName: "embed", Vocab: vs, Dim: cfg.Hidden}, id)
	if mp > 1 {
		sh.EmbedAllReduce = id
	}
	for l := 0; l < cfg.Layers; l++ {
		p := fmt.Sprintf("layer%d", l)
		ln1 := g.Add(&layer.LayerNorm{LayerName: p + ".ln1"}, id)
		qkv := g.Add(&layer.Dense{LayerName: p + ".attn.qkv", OutFeatures: 3 * hs}, ln1)
		core := g.Add(attentionCore(p+".attn.core", cfg.Seq, hs), qkv)
		proj := g.Add(&layer.Dense{LayerName: p + ".attn.proj", OutFeatures: cfg.Hidden}, core)
		if mp > 1 {
			sh.AllReduce = append(sh.AllReduce, proj)
		}
		res1 := g.Add(&layer.Add{LayerName: p + ".res1"}, id, proj)
		ln2 := g.Add(&layer.LayerNorm{LayerName: p + ".ln2"}, res1)
		ff1 := g.Add(&layer.Dense{LayerName: p + ".ff1", OutFeatures: fs}, ln2)
		gelu := g.Add(&layer.GELU{LayerName: p + ".gelu"}, ff1)
		ff2 := g.Add(&layer.Dense{LayerName: p + ".ff2", OutFeatures: cfg.Hidden}, gelu)
		if mp > 1 {
			sh.AllReduce = append(sh.AllReduce, ff2)
		}
		id = g.Add(&layer.Add{LayerName: p + ".res2"}, res1, ff2)
	}
	id = g.Add(&layer.LayerNorm{LayerName: "final.ln"}, id)
	g.Add(&layer.Softmax{LayerName: "lm-head"}, id)
	finish(g)
	return sh
}

// MegatronConfigs returns the five Megatron-LM configurations of Table IV.
func MegatronConfigs() []TransformerConfig {
	const seq, vocab = 1024, 50304
	return []TransformerConfig{
		{Name: "megatron-0.3B", Hidden: 1152, Heads: 12, Layers: 18, Seq: seq, Vocab: vocab},
		{Name: "megatron-1.2B", Hidden: 1536, Heads: 16, Layers: 40, Seq: seq, Vocab: vocab},
		{Name: "megatron-2.5B", Hidden: 1920, Heads: 20, Layers: 54, Seq: seq, Vocab: vocab},
		{Name: "megatron-4.2B", Hidden: 2304, Heads: 24, Layers: 64, Seq: seq, Vocab: vocab},
		{Name: "megatron-8.3B", Hidden: 3072, Heads: 32, Layers: 72, Seq: seq, Vocab: vocab},
	}
}

// TuringNLG returns the 17B-parameter Turing-NLG configuration
// (78 layers, hidden 4256, 28 heads) used in Fig. 8.
func TuringNLG() TransformerConfig {
	return TransformerConfig{
		Name: "turing-nlg-17B", Hidden: 4256, Heads: 28, Layers: 78,
		Seq: 1024, Vocab: 50304,
	}
}

// ---------------------------------------------------------------------------
// Small test models and the registry
// ---------------------------------------------------------------------------

// LSTMLM returns a two-layer LSTM language model over 256-step sequences
// — the RNN workload class of §III-C.5 (attention-based translation
// decoders in the paper's taxonomy use the same recurrent cost path).
func LSTMLM() *graph.Graph {
	const (
		vocab  = 32000
		seq    = 256
		embed  = 512
		hidden = 1024
	)
	g := graph.New("lstm-lm")
	id := g.Add(&layer.Input{LayerName: "tokens", Shape: tensor.Vec(seq)})
	id = g.Add(&layer.Embedding{LayerName: "embed", Vocab: vocab, Dim: embed}, id)
	id = g.Add(&layer.LSTM{LayerName: "lstm1", Hidden: hidden}, id)
	id = g.Add(&layer.Dropout{LayerName: "drop1", P: 0.2}, id)
	id = g.Add(&layer.LSTM{LayerName: "lstm2", Hidden: hidden}, id)
	id = g.Add(&layer.Dropout{LayerName: "drop2", P: 0.2}, id)
	id = g.Add(&layer.Dense{LayerName: "proj", OutFeatures: vocab}, id)
	g.Add(&layer.Softmax{LayerName: "softmax"}, id)
	return finish(g)
}

// SmallCNN returns a tiny CIFAR-style CNN for fast tests and examples.
func SmallCNN() *graph.Graph {
	g := graph.New("smallcnn")
	id := g.Add(&layer.Input{LayerName: "input", Shape: tensor.CHW(3, 32, 32)})
	id = convBNReLU(g, "c1", id, 32, 3, 1, 1)
	id = g.Add(&layer.Pool2D{LayerName: "p1", Kind: layer.MaxPool, K: 2, Stride: 2}, id)
	id = convBNReLU(g, "c2", id, 64, 3, 1, 1)
	id = g.Add(&layer.Pool2D{LayerName: "p2", Kind: layer.MaxPool, K: 2, Stride: 2}, id)
	id = convBNReLU(g, "c3", id, 128, 3, 1, 1)
	id = g.Add(&layer.GlobalAvgPool{LayerName: "gap"}, id)
	id = g.Add(&layer.Dense{LayerName: "fc", OutFeatures: 10}, id)
	g.Add(&layer.Softmax{LayerName: "softmax"}, id)
	return finish(g)
}

// builders is the registry behind Build and Names.
var builders = map[string]func() *graph.Graph{
	"resnet50":       ResNet50,
	"resnet200":      ResNet200,
	"resnet1001":     ResNet1001,
	"vgg16":          VGG16,
	"wrn-28-10":      WRN28_10,
	"unet":           UNet,
	"lstm-lm":        LSTMLM,
	"smallcnn":       SmallCNN,
	"megatron-8.3B":  func() *graph.Graph { return Transformer(MegatronConfigs()[4]) },
	"megatron-2.5B":  func() *graph.Graph { return Transformer(MegatronConfigs()[2]) },
	"turing-nlg-17B": func() *graph.Graph { return Transformer(TuringNLG()) },
}

// Build constructs a model by registry name.
func Build(name string) (*graph.Graph, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
	return b(), nil
}

// Names lists the registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
