package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "cut_t99_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre * 1.005, centre * 0.995}
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"slower latency past the bound", lower, steady(40), steady(46), "REGRESSION"},
		{"slower latency inside the bound", lower, steady(40), steady(43), "ok"},
		{"faster latency", lower, steady(40), steady(20), "ok"},
		{"lower rate past the bound", higher, steady(1000), steady(880), "REGRESSION"},
		{"higher rate", higher, steady(1000), steady(1500), "ok"},
		{"A too spread to tell", lower, []float64{30, 40, 50, 35, 45}, steady(60), "unresolved"},
		{"B too spread to tell", higher, steady(1000), []float64{500, 900, 1300, 700, 1100}, "unresolved"},
		{"single runs have no spread", lower, []float64{40}, []float64{50}, "REGRESSION"},
	} {
		if _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _, _, _ := verdict(higher, steady(1000), steady(900)); worse < 0.099 || worse > 0.101 {
		t.Errorf("a rate 10%% lower reads as %.3f worse", worse)
	}
}

func TestCompareCountsRegressionsAndFailures(t *testing.T) {
	line := func(rate float64, failed int) resultLine {
		return resultLine{Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metricOut{"rounds_per_s": {rate, "1/s"}}}
	}
	defs := []metricDef{{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}}
	a := resultFile{Workloads: map[string][]resultLine{
		"flat12-tcp": {line(1000, 0)}, "flat64-chan": {line(1000, 0)}, "hier16-tcp": {line(1000, 0)}}}
	b := resultFile{Workloads: map[string][]resultLine{
		"flat12-tcp": {line(800, 0)}, "flat64-chan": {line(990, 0)}, "hier16-tcp": {line(1000, 3)}}}
	var out bytes.Buffer
	regressions, unresolved := compare(&out, defs, a, b)
	if regressions != 2 || unresolved != 0 {
		t.Errorf("%d regressions, %d unresolved; want 2 (one slower, one with failed operations), 0\n%s", regressions, unresolved, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "3 of 10 operations failed") {
		t.Errorf("output does not name the regressions:\n%s", out.String())
	}
}
