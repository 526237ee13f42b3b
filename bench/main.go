// Command bench is the repository's end-to-end benchmark: it stands up the
// real agent runtime (and, for one workload, the cluster simulator) under
// five named workloads, drives it the way dibad and an operator would, and
// reports budget-step latency, round rate, allocation quality and cost —
// end to end from an untraced run, layer by layer from a traced one. See
// README.md for the glossary and BENCHMARK.json at the repository root for
// the contract the numbers are held to.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>   one run
//	bench all [-seed n] [-seconds s] [-trace 0|1] [-runs k]       every workload, a fresh process each
//	bench compare A.json B.json                                   judge B against A
package main

import (
	"flag"
	"fmt"
	"os"
)

const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "all":
			return cmdAll(args[1:])
		case "compare":
			return cmdCompare(args[1:])
		}
	}
	return cmdOne(args)
}

// cmdOne runs one workload once in this process and prints its metrics,
// the result line last.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	outDir := fs.String("outdir", "bench/out", "where the traced run writes trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: bench -workload <name> -seed <n> -seconds <s> -trace <0|1>\n       bench all | bench compare A.json B.json\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", w.Name, w.Why)
		}
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir}
	r := newReport()
	proc := newProcProbe()
	w.run(o, r)
	if o.traced {
		proc.report(r, r.metrics["agent.node_rounds"])
	}
	if res := r.print(os.Stdout, w.Name, o.traced); !res.Correct {
		return 1
	}
	return 0
}
