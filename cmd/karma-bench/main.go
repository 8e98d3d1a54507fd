// Command karma-bench regenerates the paper's evaluation tables and
// figures (§IV) on the simulated substrate and prints them as text
// tables. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured outcomes.
//
// Usage:
//
//	karma-bench -exp all            # everything (Fig. 5-8, Tables I/IV/V, equivalence)
//	karma-bench -exp fig5           # single-GPU throughput sweeps
//	karma-bench -exp fig5 -model resnet50
//	karma-bench -exp fig8           # multi-node scaling
//	karma-bench -exp fig8 -backend planned   # planner-backed cluster models
//	karma-bench -exp topo -topo abci         # interconnect sensitivity panel
//	karma-bench -exp fig8 -explain           # cost attribution per panel cell
//	karma-bench -exp fig8 -trace-out traces/ # Chrome traces of each row's winner
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/hw"
	"karma/internal/tensor"
	"karma/internal/topo"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5|fig6|fig7|fig8|table1|table4|table5|equiv|ablations|topo|all")
	modelName := flag.String("model", "", "restrict fig5 to one model")
	backend := flag.String("backend", "analytic",
		"cluster-model backend for fig8/table4/table5/ablations: "+strings.Join(dist.BackendNames(), "|"))
	ckpt := flag.Bool("ckpt", true,
		"activation checkpointing in the MP+DP/ZeRO/pipeline baselines of fig8/table4 (the regime real deployments train in; off shows the smaller no-recompute capacity)")
	precision := flag.String("precision", "fp32",
		"training regime for fig8/table4: "+strings.Join(tensor.PrecisionNames(), "|")+
			" — fp16 (synonym: mixed) is mixed precision with an fp32 master, halving memory and traffic and calibrating the Fig. 8 right panel toward the paper's ~1.35x")
	pipeline := flag.Bool("pipeline", false,
		"add the GPipe-style pipeline-parallel baseline family to fig8/table4")
	topoFlag := flag.String("topo", "flat",
		"interconnect model collectives route over (internal/topo): flat (the seed's single contended ring), abci (Table II's 2-NIC rail-optimized fat tree), or fattree:<ratio> (leaf uplinks oversubscribed ratio:1)")
	workers := flag.Int("workers", 0,
		"goroutines fanning grid points across each sweep (0 = NumCPU); every worker count renders identical tables")
	explain := flag.Bool("explain", false,
		"print a cost-attribution table (dist.Breakdown: compute/recompute/swap/exchange/collective/bubble/update as % of iteration) after each fig8/table4 panel")
	traceOut := flag.String("trace-out", "",
		"write the fastest feasible method of every fig8 panel row as a Chrome trace (chrome://tracing, Perfetto) into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the selected experiments to this file (go tool pprof)")
	flag.Parse()

	var cpuf *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "karma-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "karma-bench: %v\n", err)
			os.Exit(1)
		}
		cpuf = f
	}

	err := run(*exp, *modelName, *backend, *precision, *topoFlag, *traceOut, *ckpt, *pipeline, *explain, *workers)

	// Flushed before any exit path: os.Exit skips deferred calls. Close
	// reports short writes the profile flush buffered past Stop — the
	// same contract the -memprofile path keeps.
	if cpuf != nil {
		pprof.StopCPUProfile()
		if cerr := cpuf.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "karma-bench: cpuprofile: %v\n", cerr)
			if err == nil {
				os.Exit(1)
			}
		}
	}

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr == nil {
			runtime.GC() // settle live objects so alloc_* samples dominate
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "karma-bench: memprofile: %v\n", merr)
			if err == nil {
				os.Exit(1)
			}
		}
	}

	if err != nil {
		fmt.Fprintf(os.Stderr, "karma-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(exp, modelName, backend, precision, topoName, traceOut string, ckpt, pipeline, explain bool, workers int) error {
	node := hw.ABCINode()
	cl := hw.ABCI()
	tp, err := topo.Parse(topoName)
	if err != nil {
		return err
	}
	cl = cl.WithTopology(tp)
	ev, err := dist.ByName(backend)
	if err != nil {
		return err
	}
	prec, err := tensor.ParsePrecision(precision)
	if err != nil {
		return err
	}
	fo := experiments.FamilyOptions{Ckpt: ckpt, Precision: prec, Pipeline: pipeline, Workers: workers}
	all := exp == "all"

	if all || exp == "table1" {
		if _, err := experiments.TableI().WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if all || exp == "fig5" {
		for _, w := range experiments.Fig5Workloads() {
			if modelName != "" && w.Model != modelName {
				continue
			}
			panel, err := experiments.Figure5Panel(w, node)
			if err != nil {
				return err
			}
			if _, err := panel.Table().WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if modelName == "" {
			panels, err := experiments.Figure5(node)
			if err != nil {
				return err
			}
			fmt.Printf("average speedup over SOTA out-of-core/recompute methods: %.2fx (paper: 1.52x)\n\n",
				experiments.AverageSpeedup(panels))
		}
	}

	if all || exp == "fig6" {
		series, err := experiments.Figure6(node)
		if err != nil {
			return err
		}
		if _, err := experiments.Fig6Table(series).WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if all || exp == "fig7" {
		r, err := experiments.Figure7(node)
		if err != nil {
			return err
		}
		if _, err := r.Table().WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if all || exp == "fig8" {
		// The trace export always runs the planner (the export is the
		// planner's schedule by definition); reuse ev when it already is
		// the planned backend so its memos carry over.
		var pe *dist.Planned
		if traceOut != "" {
			if p, ok := ev.(*dist.Planned); ok {
				pe = p
			} else {
				pe = dist.NewPlanned()
			}
		}
		for _, cfg := range []struct {
			idx  int
			gpus []int
		}{
			{2, []int{128, 256, 512, 1024, 2048}}, // 2.5B
			{4, []int{512, 1024, 2048}},           // 8.3B
		} {
			panel, err := experiments.Figure8Megatron(cl, cfg.idx, cfg.gpus, ev, fo)
			if err != nil {
				return err
			}
			if _, err := panel.Table().WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			if explain {
				if _, err := panel.ExplainTable().WriteTo(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
			if pe != nil {
				if err := writePanelTraces(traceOut, panel, pe); err != nil {
					return err
				}
			}
		}
		turing, err := experiments.Figure8Turing(cl, []int{512, 1024, 2048}, ev, fo)
		if err != nil {
			return err
		}
		if _, err := turing.Table().WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if explain {
			if _, err := turing.ExplainTable().WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if pe != nil {
			if err := writePanelTraces(traceOut, turing, pe); err != nil {
				return err
			}
		}
	}

	if all || exp == "table4" {
		rows, err := experiments.TableIV(cl, ev, fo)
		if err != nil {
			return err
		}
		if _, err := experiments.TableIVTable(rows).WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if explain {
			if _, err := experiments.TableIVExplainTable(rows).WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}

	if all || exp == "table5" {
		sweeps, err := experiments.TableV(cl, ev, workers)
		if err != nil {
			return err
		}
		for _, name := range []string{"resnet50", "resnet200"} {
			if _, err := experiments.TableVTable(name, sweeps[name]).WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}

	if all || exp == "equiv" {
		rs, err := experiments.Equivalence()
		if err != nil {
			return err
		}
		if _, err := experiments.EquivalenceTable(rs).WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if all || exp == "ablations" {
		rs, err := experiments.Ablations(node, cl, ev, workers)
		if err != nil {
			return err
		}
		if _, err := experiments.AblationTable(rs).WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if all || exp == "topo" {
		// The sensitivity panel sweeps the preset ladder regardless of
		// -topo (which pins the fabric of the other experiments), so the
		// flat row always anchors against the calibrated Fig. 8 numbers.
		const gpus = 512
		rows, err := experiments.TopologySweep(cl, gpus, experiments.TopoLadder(), ev, fo)
		if err != nil {
			return err
		}
		if _, err := experiments.TopoTable(rows, gpus, ev.Name()).WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	switch exp {
	case "all", "fig5", "fig6", "fig7", "fig8", "table1", "table4", "table5", "equiv", "ablations", "topo":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
