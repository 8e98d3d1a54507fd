package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"karma/internal/model"
	"karma/internal/serve"
)

// Request is one generated HTTP request. The body is the exact JSON the
// daemon receives; the typed fields are kept so the output checks know
// what the answer must satisfy (replica count, GPU count).
type Request struct {
	Endpoint string
	Body     []byte
	Eval     *serve.EvaluateRequest // nil for /v1/sweep
	Sweep    *serve.SweepRequest    // nil for the other endpoints
}

// Endpoints in the fixed order every per-endpoint report uses.
var endpoints = []string{"/v1/evaluate", "/v1/feasibility", "/v1/plan", "/v1/trace", "/v1/sweep"}

// workloadSpec fixes how a workload drives the daemon.
type workloadSpec struct {
	// clients is the number of closed-loop callers (one connection each).
	clients int
	// warmup is the number of requests sent before the measured phase.
	warmup int
}

var workloads = map[string]workloadSpec{
	// Two callers saturate both CPUs on independent evaluations.
	"eval-cold": {clients: 2, warmup: 500},
	// The warm-up sends every memo variant once, so the measured phase
	// runs memo-warm and the response cache decides hit or miss.
	"eval-mixed": {clients: 2, warmup: mixedWarmup()},
	// One caller: the daemon fans every sweep out over NumCPU workers.
	// The warm-up covers every value-keyed evaluator memo the panels
	// reach.
	"sweep-grid": {clients: 1, warmup: len(sweepCover())},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stream is a workload's seeded request sequence. Request i is a pure
// function of (workload, seed, i); requests are generated on demand so a
// run never runs out, and a mutex lets concurrent callers share it.
type Stream struct {
	mu   sync.Mutex
	reqs []Request
	next func() Request
}

// NewStream returns the request sequence of a workload for a seed.
func NewStream(workload string, seed int64) (*Stream, error) {
	rng := rand.New(rand.NewSource(seed))
	var next func() Request
	switch workload {
	case "eval-cold":
		next = coldGen(rng)
	case "eval-mixed":
		next = mixedGen(rng)
	case "sweep-grid":
		next = sweepGen(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames())
	}
	return &Stream{next: next}, nil
}

// At returns request i of the stream.
func (s *Stream) At(i int) Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.next())
	}
	return s.reqs[i]
}

func evalRequest(endpoint string, r serve.EvaluateRequest) Request {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs of strings, ints and bools always marshal
	}
	return Request{Endpoint: endpoint, Body: b, Eval: &r}
}

func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// pow2 returns 2^k for k uniform in [lo, hi].
func pow2(rng *rand.Rand, lo, hi int) int { return 1 << (lo + rng.Intn(hi-lo+1)) }

var topologies = []string{"flat", "abci", "fattree:4"}

// familyKnobs fills the family-specific sizing of an evaluate request:
// device counts divisible by the model-parallel degree or stage count,
// micro-batch counts that divide the batch, so every request is valid.
func familyKnobs(rng *rand.Rand, r *serve.EvaluateRequest, layers int) {
	switch r.Family {
	case "karma-dp", "dp":
		r.GPUs = pow2(rng, 3, 11)
		r.Batch = pow2(rng, 0, 4)
	case "mp+dp", "zero":
		r.MP = pow2(rng, 0, 3)
		r.GPUs = r.MP * pow2(rng, 2, 8)
		r.Batch = pow2(rng, 0, 3)
		r.Ckpt = rng.Intn(2) == 0
		r.Phased = rng.Intn(2) == 0
	case "pipeline":
		r.Stages = pow2(rng, 1, 3)
		for r.Stages > layers {
			r.Stages /= 2
		}
		r.GPUs = r.Stages * pow2(rng, 2, 8)
		k := 2 + rng.Intn(4)
		r.Batch = 1 << k
		r.Micro = pow2(rng, 0, k) // micro-batches must divide the batch
		r.Ckpt = rng.Intn(2) == 0
	}
}

// coldGen draws evaluations of explicit transformer shapes that never
// repeat: every request builds a graph, profiles it, searches, plans and
// simulates from nothing.
func coldGen(rng *rand.Rand) func() Request {
	seen := map[model.TransformerConfig]bool{}
	// Families and backends cycle in a fixed order (stratified, so every
	// seed sends the same mix); shapes and the other knobs are drawn.
	families := []string{"karma-dp", "mp+dp", "zero", "karma-dp", "pipeline", "dp", "karma-dp", "mp+dp", "zero", "pipeline"}
	backends := []string{"planned", "planned", "analytic", "planned"}
	n := 0
	return func() Request {
		defer func() { n++ }()
		var cfg model.TransformerConfig
		for {
			heads := pick(rng, 8, 12, 16, 20, 24, 32)
			cfg = model.TransformerConfig{
				Hidden: heads * pick(rng, 64, 80, 96, 128),
				Heads:  heads,
				Layers: 4 + rng.Intn(37),
				Seq:    pick(rng, 512, 1024, 2048),
				Vocab:  30000 + rng.Intn(22001),
			}
			if !seen[cfg] {
				seen[cfg] = true
				break
			}
		}
		r := serve.EvaluateRequest{
			Family:      families[n%len(families)],
			Backend:     backends[n/len(families)%len(backends)],
			Transformer: &cfg,
			Cluster:     serve.ClusterSpec{Preset: "abci", Nodes: 1088, Topology: pick(rng, topologies...)},
			Samples:     7_200_000,
			Precision:   pick(rng, "fp32", "fp16"),
		}
		familyKnobs(rng, &r, cfg.Layers)
		return evalRequest(pick(rng, "/v1/evaluate", "/v1/evaluate", "/v1/feasibility"), r)
	}
}

// The mixed workload's vocabulary. The evaluator memos key on model,
// family, batch, precision, MP degree or stage count, checkpointing and
// (for ZeRO's sharded budget) the GPU count; those take few values here,
// so the warm-up covers every memo key. Cluster-side knobs — GPU count,
// topology, phased exchange, backend, endpoint — vary freely and only
// multiply response-cache keys.
var (
	namedTransformers = []string{"megatron-0.3B", "megatron-1.2B", "megatron-2.5B", "megatron-4.2B", "megatron-8.3B", "turing-nlg-17B"}
	cnnModels         = []string{"resnet50", "resnet200", "resnet1001", "vgg16", "wrn-28-10", "unet"}
	mixedGPUs         = []int{64, 512, 2048}
)

// mixedZipfS is the popularity skew: with it the response cache (1024
// entries) serves most of the measured traffic and the tail misses.
const mixedZipfS = 1.1

func namedRequest(m, family string) serve.EvaluateRequest {
	return serve.EvaluateRequest{
		Family: family, Backend: "planned", Model: m, GPUs: 512,
		Cluster: serve.ClusterSpec{Preset: "abci", Nodes: 1088, Topology: "flat"},
		Samples: 7_200_000, Precision: "fp32",
	}
}

// mixedVariants returns every memo-relevant variant of one model, on the
// planned backend at 512 GPUs on the flat fabric.
func mixedVariants(m string) []serve.EvaluateRequest {
	_, transformer := model.TransformerByName(m)
	var out []serve.EvaluateRequest
	for _, prec := range []string{"fp32", "fp16"} {
		batches := []int{32, 128} // image models train at larger batches
		if transformer {
			batches = []int{1, 4}
		}
		for _, fam := range []string{"karma-dp", "dp"} {
			for _, b := range batches {
				r := namedRequest(m, fam)
				r.Batch, r.Precision = b, prec
				out = append(out, r)
			}
		}
		if !transformer {
			continue
		}
		for _, ckpt := range []bool{true, false} {
			for _, mp := range []int{2, 8} {
				for _, fam := range []string{"mp+dp", "zero"} {
					r := namedRequest(m, fam)
					r.MP, r.Batch, r.Ckpt, r.Precision = mp, 8, ckpt, prec
					out = append(out, r)
				}
			}
			for _, stages := range []int{2, 4} {
				r := namedRequest(m, "pipeline")
				r.Stages, r.Batch, r.Micro, r.Ckpt, r.Precision = stages, 16, 8, ckpt, prec
				out = append(out, r)
			}
		}
	}
	return out
}

// mixedWarmup is the warm-up of the mixed workload: every memo variant
// of every model, once.
func mixedWarmup() int {
	n := 0
	for _, m := range append(append([]string(nil), namedTransformers...), cnnModels...) {
		n += len(mixedVariants(m))
	}
	return n
}

// exportConfigs are the /v1/plan and /v1/trace configurations of the
// mixed workload, drawn from the memo variants and each feasible on the
// planned backend by construction, so an export answers 200 with a plan.
func exportConfigs() []serve.EvaluateRequest {
	var out []serve.EvaluateRequest
	for _, m := range []string{"megatron-0.3B", "megatron-1.2B", "megatron-2.5B", "megatron-8.3B", "turing-nlg-17B"} {
		r := namedRequest(m, "karma-dp")
		r.Batch = 1
		out = append(out, r)
	}
	for _, m := range []string{"resnet50", "vgg16", "wrn-28-10"} {
		r := namedRequest(m, "karma-dp")
		r.Batch = 32
		out = append(out, r)
	}
	for _, m := range []string{"megatron-0.3B", "megatron-1.2B", "megatron-2.5B"} {
		for _, fam := range []string{"mp+dp", "zero"} {
			r := namedRequest(m, fam)
			r.MP, r.Batch, r.Ckpt = 8, 8, true
			out = append(out, r)
		}
		p := namedRequest(m, "pipeline")
		p.Stages, p.Batch, p.Micro, p.Ckpt = 4, 16, 8, true
		out = append(out, p)
	}
	return out
}

// mixedGen draws dashboard traffic: the warm-up sends every memo
// variant; then Zipf-popular configurations over the named models with
// cluster-side knobs varied, plus 15% exports. Popularity ranks cycle
// through the (model, family) kinds, so every seed puts the same kinds
// at the same ranks and only the knobs within a kind are shuffled.
func mixedGen(rng *rand.Rand) func() Request {
	var warm []Request
	var kinds [][]Request
	for _, m := range append(append([]string(nil), namedTransformers...), cnnModels...) {
		byFamily := map[string][]Request{}
		var families []string
		for _, v := range mixedVariants(m) {
			warm = append(warm, evalRequest("/v1/evaluate", v))
			if byFamily[v.Family] == nil {
				families = append(families, v.Family)
			}
			gpus := mixedGPUs
			if v.Family == "zero" {
				gpus = []int{v.GPUs} // ZeRO's budget, a memo key, depends on the GPU count
			}
			phased := []bool{false}
			if v.Family == "mp+dp" {
				phased = []bool{false, true}
			}
			for _, g := range gpus {
				for _, tp := range topologies {
					for _, ph := range phased {
						for _, be := range []string{"planned", "analytic"} {
							for _, ep := range []string{"/v1/evaluate", "/v1/feasibility"} {
								r := v
								r.GPUs, r.Cluster.Topology, r.Phased, r.Backend = g, tp, ph, be
								byFamily[v.Family] = append(byFamily[v.Family], evalRequest(ep, r))
							}
						}
					}
				}
			}
		}
		for _, f := range families {
			k := byFamily[f]
			rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
			kinds = append(kinds, k)
		}
	}
	var pop []Request
	for j := 0; ; j++ {
		added := false
		for _, k := range kinds {
			if j < len(k) {
				pop = append(pop, k[j])
				added = true
			}
		}
		if !added {
			break
		}
	}
	var exports []Request
	for _, c := range exportConfigs() {
		exports = append(exports, evalRequest("/v1/plan", c), evalRequest("/v1/trace", c))
	}
	rng.Shuffle(len(exports), func(i, j int) { exports[i], exports[j] = exports[j], exports[i] })
	zipf := rand.NewZipf(rng, mixedZipfS, 1, uint64(len(pop)-1))
	exportZipf := rand.NewZipf(rng, mixedZipfS, 1, uint64(len(exports)-1))
	i := 0
	return func() Request {
		defer func() { i++ }()
		if i < len(warm) {
			return warm[i]
		}
		if rng.Intn(100) < 15 {
			return exports[exportZipf.Uint64()]
		}
		return pop[zipf.Uint64()]
	}
}

// GPU counts the sweep-grid panels draw from: fig8 grids are subsets,
// the topo panel takes one. The evaluator memos key partly on the GPU
// count (ZeRO's capacity search, sharded budgets), so a fixed vocabulary
// is what lets the warm-up cover every memo key.
var (
	megatronSizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	turingSizes   = []int{256, 512, 1024, 2048, 4096}
	topoSizes     = []int{256, 512, 768, 1024, 1536, 2048, 3072, 4096}
)

// sweepCover is the sweep-grid warm-up: every panel at every
// precision, checkpointing, pipeline and configuration setting with its
// full GPU grid, on the planned backend, so every value-keyed evaluator
// memo is warm when the measured phase starts.
func sweepCover() []serve.SweepRequest {
	var out []serve.SweepRequest
	for _, panel := range panels {
		for _, prec := range []string{"fp32", "fp16"} {
			for _, ckpt := range []bool{true, false} {
				ckpt := ckpt
				r := serve.SweepRequest{
					Panel: panel, Backend: "planned", Precision: prec, Ckpt: &ckpt,
					Cluster: serve.ClusterSpec{Preset: "abci", Nodes: 1088, Topology: "flat"},
				}
				switch panel {
				case "fig8-megatron":
					for c := range model.MegatronConfigs() {
						for _, pipe := range []bool{false, true} {
							c := c
							r.Config, r.GPUs, r.Pipeline = &c, megatronSizes, pipe
							out = append(out, r)
						}
					}
				case "fig8-turing", "table4":
					for _, pipe := range []bool{false, true} {
						r.Pipeline = pipe
						if panel == "fig8-turing" {
							r.GPUs = turingSizes
						}
						out = append(out, r)
					}
				case "table5":
					out = append(out, r)
				case "topo":
					for _, g := range topoSizes {
						r.GPUs = []int{g}
						out = append(out, r)
					}
				}
			}
		}
	}
	return out
}

// sweepGen sends the cover, then panel regenerations that never repeat:
// seeded GPU grids, precision, topology, checkpointing and pipeline
// toggles, and the cluster's node count.
func sweepGen(rng *rand.Rand) func() Request {
	seen := map[string]bool{}
	grid := func(sizes []int) []int {
		var g []int
		for len(g) == 0 {
			for _, s := range sizes {
				if rng.Intn(3) == 0 {
					g = append(g, s)
				}
			}
		}
		return g
	}
	cover := sweepCover()
	// Panels and backends cycle in a fixed order (stratified, so every
	// seed sends the same mix); the other knobs are drawn.
	backends := []string{"planned", "planned", "analytic"}
	n := 0
	return func() Request {
		defer func() { n++ }()
		for {
			var r serve.SweepRequest
			if n < len(cover) {
				r = cover[n]
			} else {
				ckpt := rng.Intn(4) != 0
				r = serve.SweepRequest{
					Panel:     panels[n%len(panels)],
					Backend:   backends[n/len(panels)%len(backends)],
					Cluster:   serve.ClusterSpec{Preset: "abci", Nodes: 512 + rng.Intn(577), Topology: pick(rng, "flat", "abci", "fattree:2", "fattree:4")},
					Precision: pick(rng, "fp32", "fp16"),
					Ckpt:      &ckpt,
				}
				switch r.Panel {
				case "fig8-megatron":
					c := rng.Intn(len(model.MegatronConfigs()))
					r.Config = &c
					r.GPUs = grid(megatronSizes)
					r.Pipeline = rng.Intn(2) == 0
				case "fig8-turing":
					r.GPUs = grid(turingSizes)
					r.Pipeline = rng.Intn(2) == 0
				case "table4":
					r.Pipeline = rng.Intn(2) == 0
				case "topo":
					r.GPUs = []int{pick(rng, topoSizes...)}
				}
			}
			b, err := json.Marshal(r)
			if err != nil {
				panic(err)
			}
			if !seen[string(b)] {
				seen[string(b)] = true
				return Request{Endpoint: "/v1/sweep", Body: b, Sweep: &r}
			}
		}
	}
}
