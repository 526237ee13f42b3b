package main

import (
	"strings"
	"testing"
)

func TestPostTargetSweepsTheClusterLevelByLevel(t *testing.T) {
	const n = 12
	for m := int64(0); m < 5*n; m++ {
		node, level := postTarget(m, n)
		if node != int(m%n) || level != int(m/n%2) {
			t.Fatalf("write %d goes to node %d at level %d", m, node, level)
		}
	}
	if _, level := postTarget(0, n); level != 0 {
		t.Error("the first sweep must write LO: the cluster starts under HI")
	}
}

// One short epoch of budget cycles on the paper's 12 agents, end to end:
// every check passes, every step metric and per-layer family comes out.
func TestFlatEpochSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := newReport()
		o := runOpts{seed: 3, seconds: 0.4, traced: traced, outDir: t.TempDir()}
		trc := newTracerIf(traced, true)
		run := runFlat(clusterSpec{name: "smoke", n: 12, listen: true}, o, r, 1, trc)
		if r.failed > 0 {
			t.Fatalf("traced=%v: %d of %d operations failed: %s", traced, r.failed, r.attempted, strings.Join(r.failures, "; "))
		}
		if !traced {
			run.report(r)
			for _, name := range []string{"setup_s", "op_ms_p50", "op_ms_p90", "ops_per_s", "cut_compliant_ms_p50", "cut_t99_ms_p50",
				"cut_t99_ms_p90", "raise_t99_ms_p50", "rounds_per_s", "allocs_per_node_round", "alloc_bytes_per_node_round", "util_frac"} {
				if r.metrics[name] <= 0 {
					t.Errorf("%s = %v", name, r.metrics[name])
				}
			}
			if c, t99 := r.metrics["cut_compliant_ms_p50"], r.metrics["cut_t99_ms_p50"]; c > t99 {
				t.Errorf("compliant after %v ms but at 99%% after %v ms", c, t99)
			}
			continue
		}
		run.agg.report(r, &run.steps)
		finishTrace(trc, o, r, "smoke")
		for _, name := range []string{"agent.step_us_p50", "agent.self_us_p50", "agent.rounds_to_99_p50",
			"transport.recv_wait_us_per_round", "transport.msgs_per_node_round", "ctlplane.fanout_ms_p50",
			"ctlplane.post_budget_us_p50", "statepub.publishes_per_round", "trace.spans", "harness.loop_coverage_frac"} {
			if r.metrics[name] <= 0 {
				t.Errorf("%s = %v", name, r.metrics[name])
			}
		}
		if r.metrics["tcp.bytes_per_msg"] != 0 || r.metrics["tcp.flushes_per_node_round"] != 0 {
			t.Error("tcp counters moved on a cluster that runs over channels")
		}
		if len(trc.steps) == 0 || trc.steps[0].SelfUs <= 0 || trc.steps[0].RoundUs < trc.steps[0].SendUs+trc.steps[0].RecvWaitUs {
			t.Errorf("step summaries do not add up: %+v", trc.steps)
		}
	}
}

func TestResultLineCarriesEveryMetricOfItsKind(t *testing.T) {
	r := newReport()
	r.merge(3, 0, nil)
	for _, d := range endToEnd {
		r.set(d.Name, 1.5)
	}
	res := r.result(false)
	if !res.Correct || len(res.Metrics) != len(endToEnd) || res.Attempted != 3 {
		t.Errorf("%+v", res)
	}
	// A traced line lists every per-layer metric, zero where untouched.
	res = newReportWithOps(1).result(true)
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Errorf("%+v", res)
	}
	// An end-to-end metric nobody measured is a failure, not a silent zero.
	r = newReportWithOps(1)
	if res := r.result(false); res.Correct || res.Failed != len(endToEnd) {
		t.Errorf("%+v", res)
	}
}

func newReportWithOps(n int) *report {
	r := newReport()
	r.merge(n, 0, nil)
	return r
}
