package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json compare needs: the
// end-to-end metrics with their directions and bounds.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

func loadResult(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func values(runs []resultLine, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges one metric of one workload: how much worse B's median is
// than A's as a share of A's (negative is better), and what that means
// against the bound. Where either side's own quartile spread is wider than
// the bound the difference cannot be told from noise, and the verdict says
// so instead of "ok".
func verdict(d metricDef, a, b []float64) (worse, spreadA, spreadB float64, status string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	spreadA, spreadB = spread(a), spread(b)
	switch {
	case spreadA > d.Bound || spreadB > d.Bound:
		status = "unresolved"
	case worse > d.Bound:
		status = "REGRESSION"
	default:
		status = "ok"
	}
	return
}

// compare prints B against A for every workload and end-to-end metric and
// returns how many regressed.
func compare(w io.Writer, defs []metricDef, a, b resultFile) (regressions, unresolved int) {
	fmt.Fprintf(w, "A: seed %d, %gs, %s, %s\nB: seed %d, %gs, %s, %s\n",
		a.Stamp.Seed, a.Stamp.Seconds, a.Stamp.GitCommit, a.Stamp.CPUModel,
		b.Stamp.Seed, b.Stamp.Seconds, b.Stamp.GitCommit, b.Stamp.CPUModel)
	fmt.Fprintf(w, "%-14s %-28s %12s %12s %8s %6s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, side := range [][]resultLine{ra, rb} {
			for _, run := range side {
				if run.Failed > 0 {
					fmt.Fprintf(w, "%-14s %d of %d operations failed\n", wl.Name, run.Failed, run.Attempted)
					regressions++
				}
			}
		}
		for _, d := range defs {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, sa, sb, status := verdict(d, va, vb)
			switch status {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-28s %12.6g %12.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), 100*worse, 100*d.Bound, 100*sa, 100*sb, status)
		}
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved\n", regressions, unresolved)
	return regressions, unresolved
}

func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	contract := fs.String("benchmark", "BENCHMARK.json", "the file the bounds are read from")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	var bj benchmarkJSON
	raw, err := os.ReadFile(*contract)
	if err == nil {
		err = json.Unmarshal(raw, &bj)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResult(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	// Besides the contract's metrics, judge the workload-named ones that
	// carry a bound of their own.
	defs := bj.EndToEnd
	for _, d := range workloadNamed {
		if d.Bound > 0 {
			defs = append(defs, d)
		}
	}
	if regressions, _ := compare(os.Stdout, defs, a, b); regressions > 0 {
		return 1
	}
	return 0
}
