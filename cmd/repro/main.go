// Command repro regenerates the tables and figures of the reproduced
// evaluation. Each experiment id (see DESIGN.md's per-experiment index)
// maps to one subcommand:
//
//	repro [-full] [-seed N] [-j N] all
//	repro [-full] [-seed N] fig4.3 table4.2 ...
//	repro list
//
// By default experiments run at the Quick scale (smaller clusters, same
// qualitative shapes); -full selects the paper's parameters and can take
// many minutes for the large knapsack and DiBA runs. -j runs experiments
// (and their internal sweeps) on that many workers; all modeled output is
// byte-identical at any -j, only wall-clock time and the measured-timing
// cells change. Performance is measured by the benchmark in bench/
// (`bash bench/run.sh`), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"powercap/internal/asciiplot"
	"powercap/internal/experiments"
	"powercap/internal/parallel"
)

type runner func(scale experiments.Scale, seed int64) (experiments.Table, error)

var registry = map[string]runner{
	"fig4.2": func(experiments.Scale, int64) (experiments.Table, error) { return experiments.Fig42() },
	"fig4.3": experiments.Fig43,
	"table4.2": func(s experiments.Scale, seed int64) (experiments.Table, error) {
		return experiments.Table42(s, seed)
	},
	"fig4.4": experiments.Fig44,
	"fig4.5": experiments.Fig45,
	"fig4.6": experiments.Fig46,
	"fig4.7": experiments.Fig47,
	"fig4.8": func(_ experiments.Scale, seed int64) (experiments.Table, error) {
		return experiments.Fig48(seed)
	},
	"fig4.9": func(_ experiments.Scale, seed int64) (experiments.Table, error) {
		return experiments.Fig49(seed)
	},
	"fig4.10":  experiments.Fig410,
	"table3.2": experiments.Table32,
	"fig3.1": func(_ experiments.Scale, seed int64) (experiments.Table, error) {
		return experiments.Fig31(seed)
	},
	"fig3.5":      experiments.Fig35,
	"fig3.7":      experiments.Fig37,
	"fig5.2":      experiments.Fig52,
	"fig5.3":      experiments.Fig53,
	"fig3.4":      experiments.Fig34,
	"fig3.10":     experiments.Fig310,
	"fig3.11":     experiments.Fig311,
	"fig3.12":     experiments.Fig312,
	"fig3.13":     experiments.Fig313,
	"fig3.14":     experiments.Fig314,
	"table5.2":    experiments.Table52,
	"ablation":    experiments.Ablation,
	"failure":     experiments.Failure,
	"async":       experiments.Async,
	"hierarchy":   experiments.Hierarchy,
	"desscale":    experiments.DesScale,
	"hierscale":   experiments.HierScale,
	"hierfail":    experiments.HierFail,
	"grayfail":    experiments.GrayFail,
	"fxplore":     experiments.FXplore,
	"safety":      experiments.Safety,
	"scaling":     experiments.Scaling,
	"sensorchaos": experiments.SensorChaos,
	"fig5.4":      experiments.Fig54,
	"fig5.5":      experiments.Fig55,
	"fig5.7":      experiments.Fig57,
}

func ids() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	full := flag.Bool("full", false, "run at the paper's full scale (slow)")
	seed := flag.Int64("seed", 1, "random seed")
	csvDir := flag.String("csv", "", "also write each result as <dir>/<id>.csv")
	plot := flag.Bool("plot", false, "render figures as ASCII line charts below each table")
	jobs := flag.Int("j", 0, "worker count for experiments and their sweeps (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro [-full] [-seed N] [-j N] <experiment ids...|all|list>\n\nexperiments:\n")
		for _, id := range ids() {
			fmt.Fprintf(os.Stderr, "  %s\n", id)
		}
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return 2
	}
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	parallel.SetWorkers(*jobs)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			}
		}()
	}

	var selected []string
	switch args[0] {
	case "list":
		for _, id := range ids() {
			fmt.Println(id)
		}
		return 0
	case "all":
		selected = ids()
	default:
		selected = args
	}

	exit := 0
	var runJobs []experiments.Job
	for _, id := range selected {
		r, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (try 'repro list')\n", id)
			exit = 1
			continue
		}
		id := id
		runJobs = append(runJobs, experiments.Job{ID: id, Run: func() (experiments.Table, error) {
			return r(scale, *seed)
		}})
	}
	experiments.RunJobs(runJobs, func(res experiments.JobResult) {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s failed: %v\n", res.ID, res.Err)
			exit = 1
			return
		}
		res.Table.Fprint(os.Stdout)
		if *plot {
			if chart := renderChart(res.Table); chart != "" {
				fmt.Println(chart)
			}
		}
		fmt.Printf("  (%s in %v)\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res.ID, res.Table); err != nil {
				fmt.Fprintf(os.Stderr, "repro: writing %s.csv: %v\n", res.ID, err)
				exit = 1
			}
		}
	})
	return exit
}

// renderChart plots the table's numeric columns against its first numeric
// column. Tables without at least two numeric columns render nothing.
func renderChart(t experiments.Table) string {
	if len(t.Rows) < 2 {
		return ""
	}
	numeric := func(col int) ([]float64, bool) {
		out := make([]float64, len(t.Rows))
		for r, row := range t.Rows {
			if col >= len(row) {
				return nil, false
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(row[col]), 64)
			if err != nil {
				return nil, false
			}
			out[r] = v
		}
		return out, true
	}
	var x []float64
	xCol := -1
	for c := range t.Columns {
		if vals, ok := numeric(c); ok {
			x, xCol = vals, c
			break
		}
	}
	if xCol < 0 {
		return ""
	}
	// Anchor the Y axis on the first numeric column after X and only plot
	// columns on a comparable scale, so e.g. percentage columns don't
	// squash SNP curves.
	var series []asciiplot.Series
	var lo, hi float64
	for c := xCol + 1; c < len(t.Columns); c++ {
		vals, ok := numeric(c)
		if !ok {
			continue
		}
		vMin, vMax := vals[0], vals[0]
		for _, v := range vals {
			if v < vMin {
				vMin = v
			}
			if v > vMax {
				vMax = v
			}
		}
		if len(series) == 0 {
			lo, hi = vMin, vMax
		} else {
			span := hi - lo
			if span == 0 {
				span = 1
			}
			if vMin < lo-2*span || vMax > hi+2*span {
				continue // different scale; skip
			}
		}
		series = append(series, asciiplot.Series{Name: t.Columns[c], X: x, Y: vals})
	}
	if len(series) == 0 {
		return ""
	}
	return asciiplot.Render(series, asciiplot.Options{
		Title: fmt.Sprintf("  %s vs %s", t.ID, t.Columns[xCol]),
	})
}

func writeCSV(dir, id string, t experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
