package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp says where and on what a result file was measured.
type stamp struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	GitCommit  string  `json:"git_commit"`
}

func newStamp(seed int64, seconds float64, traced bool) stamp {
	s := stamp{Seed: seed, Seconds: seconds, Traced: traced, CPUModel: "unknown", NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Kernel: "unknown", GitCommit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository has no commit to name.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.GitCommit = strings.TrimSpace(string(b))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			s.GitCommit += "+dirty"
		}
	}
	return s
}

// resultFile is what `bench all` writes and `bench compare` reads: every
// run's result line, per workload.
type resultFile struct {
	Stamp     stamp                   `json:"stamp"`
	Workloads map[string][]resultLine `json:"workloads"`
}

// cmdAll runs every workload in a fresh child process each, echoes what
// the children print and writes one result file.
func cmdAll(args []string) int {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed the workloads' inputs are made from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long each run measures")
	trace := fs.Int("trace", 0, "1 = the traced runs: per-layer metrics and span files")
	runs := fs.Int("runs", 1, "runs of each workload; compare needs several a side to judge spread")
	outDir := fs.String("outdir", "bench/out", "where results and traces go")
	out := fs.String("out", "", "result file (default <outdir>/result-seed<seed>[-trace].json)")
	only := fs.String("only", "", "comma-separated workloads to run instead of all")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 || *runs < 1 {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench all:", err)
		return 1
	}
	res := resultFile{Stamp: newStamp(*seed, *seconds, *trace == 1), Workloads: map[string][]resultLine{}}
	code := 0
	for _, w := range workloads {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.Name+",") {
			continue
		}
		for k := 0; k < *runs; k++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(*seed),
				"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace), "-outdir", *outDir)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			os.Stdout.Write(stdout)
			// The line before the result line carries every metric the
			// run measured, which is what the result file keeps.
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line resultLine
			last := lines[len(lines)-1]
			if len(lines) > 1 && bytes.HasPrefix(lines[len(lines)-2], []byte(allMetricsPrefix)) {
				last = bytes.TrimPrefix(lines[len(lines)-2], []byte(allMetricsPrefix))
			}
			if err := json.Unmarshal(last, &line); err != nil {
				fmt.Fprintf(os.Stderr, "bench all: %s printed no result line: %v (%v)\n", w.Name, err, runErr)
				code = 1
				continue
			}
			if runErr != nil || !line.Correct {
				code = 1
			}
			res.Workloads[w.Name] = append(res.Workloads[w.Name], line)
		}
	}
	path := *out
	if path == "" {
		name := fmt.Sprintf("result-seed%d.json", *seed)
		if *trace == 1 {
			name = fmt.Sprintf("result-seed%d-trace.json", *seed)
		}
		path = filepath.Join(*outDir, name)
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench all:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return code
}
