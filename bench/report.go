package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// runOpts is what one workload run is given.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// report collects one run's metrics and the outcome of every operation and
// output check. A failed check is a failed operation: it counts against
// attempted, makes the run incorrect and the process exit non-zero.
type report struct {
	metrics   map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]string{}}
}

// set stores a metric. A value that is not a number is a failed check and
// reads zero, which JSON can carry.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.metrics[name] = v
}

// note attaches the sample count and percentile behind a metric.
func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// op records one attempted operation or check.
func (r *report) op(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

// merge adds operations counted elsewhere, such as by a client goroutine,
// with the messages of the first few that failed.
func (r *report) merge(attempted, failed int, msgs []string) {
	r.attempted += attempted
	r.failed += failed
	r.failures = append(r.failures, msgs...)
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setTiming stores a timing's median under p50Name and, when tailName is
// given, its tail percentile, noting the count and the percentile the
// sample supported.
func (r *report) setTiming(t timing, scale float64, p50Name, tailName string) {
	if t.N == 0 {
		return
	}
	r.set(p50Name, t.P50*scale)
	r.note(p50Name, "n=%d", t.N)
	if tailName != "" {
		r.set(tailName, t.Tail*scale)
		r.note(tailName, "p%g, n=%d", t.TailP, t.N)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a run prints last.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result builds the final line: every end-to-end metric for an untraced
// run, every per-layer metric for a traced one. A per-layer metric the
// workload never touched reads zero; an end-to-end metric nobody measured
// is a failure, since none of them may be zero.
func (r *report) result(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !traced && (!ok || v == 0) {
			r.fail("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricOut{v, d.Unit}
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.fail("no operation attempted")
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	return out
}

// print writes every metric the run measured by name with its unit, then
// the failures, then the result line.
func (r *report) print(w io.Writer, workload string, traced bool) resultLine {
	res := r.result(traced)
	units := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, workloadNamed, perLayer} {
		for _, d := range defs {
			units[d.Name] = d.Unit
		}
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s (traced=%v)\n", workload, traced)
	for _, name := range names {
		line := fmt.Sprintf("  %-36s %14.6g %-6s", name, r.metrics[name], units[name])
		if n := r.notes[name]; n != "" {
			line += " (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, failed_frac %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	// Everything measured, for `bench all`'s result file; then the result
	// line proper, which has to be last.
	all := res
	all.Metrics = make(map[string]metricOut, len(r.metrics))
	for name, v := range r.metrics {
		all.Metrics[name] = metricOut{v, units[name]}
	}
	fmt.Fprintf(w, "%s%s\n%s\n", allMetricsPrefix, mustJSON(all), mustJSON(res))
	return res
}

func mustJSON(v resultLine) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return b
}

// allMetricsPrefix starts the line before the last, which carries every
// metric the run measured rather than only the contract's.
const allMetricsPrefix = "all-metrics: "
