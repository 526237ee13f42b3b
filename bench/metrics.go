package main

// metricDef names one reported number. BENCHMARK.json at the repository
// root carries the same tables (TestBenchmarkJSONMatchesTables holds the two
// together); the harness emits exactly these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the numbers a user of the system would see, and the ones
// BENCHMARK.json bounds. The contract has every workload report every one
// of them, never as zero, so they are named for what all five workloads
// have: set-up, a request with a latency and a rate, rounds, allocations,
// allocation quality. What "the request" is on each workload — a budget cut
// on the flat clusters, an HTTP request on api12-mixed — is in README.md,
// and every run also prints its numbers under the workload's own names
// (workloadNamed below).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.10},
	{"op_ms_p90", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.12},
	{"rounds_per_s", "1/s", "higher", 0.12},
	{"allocs_per_node_round", "count", "lower", 0.05},
	{"alloc_bytes_per_node_round", "B", "lower", 0.05},
	{"util_frac", "frac", "higher", 0.03},
}

// workloadNamed are the end-to-end numbers under the names the workloads'
// own vocabulary gives them. A run prints the ones it measures and `bench
// all` keeps them in its result file. Most repeat an endToEnd metric of
// that workload; the two with a bound do not, and compare judges them too.
var workloadNamed = []metricDef{
	{"cut_compliant_ms_p50", "ms", "lower", 0.25},
	{"raise_t99_ms_p50", "ms", "lower", 0.10},
	{Name: "cut_t99_ms_p50", Unit: "ms", Better: "lower"},     // flat: op_ms_p50
	{Name: "cut_t99_ms_p90", Unit: "ms", Better: "lower"},     // flat: op_ms_p90
	{Name: "api_get_p50_us", Unit: "us", Better: "lower"},     // api12-mixed: op_ms_p50
	{Name: "api_rps", Unit: "1/s", Better: "higher"},          // api12-mixed: ops_per_s
	{Name: "hier_util_frac", Unit: "frac", Better: "higher"},  // hier16-tcp: util_frac
	{Name: "sim_s_per_wall_s", Unit: "1/s", Better: "higher"}, // sim8k-dynamic: ops_per_s
	{Name: "harness.loop_coverage_frac", Unit: "frac", Better: "higher"},
}

// perLayer are the traced run's numbers, one group per module. A workload
// that does not run a layer reports its counters as zero.
var perLayer = []metricDef{
	{Name: "agent.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "agent.step_us_p99", Unit: "us", Better: "lower"},
	{Name: "agent.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "agent.node_rounds", Unit: "count", Better: "higher"},
	{Name: "agent.step_errors", Unit: "count", Better: "lower"},
	{Name: "agent.round_skew_max", Unit: "count", Better: "lower"},
	{Name: "agent.rounds_to_99_p50", Unit: "count", Better: "lower"},

	{Name: "transport.send_us_per_round", Unit: "us", Better: "lower"},
	{Name: "transport.send_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.recv_wait_us_per_round", Unit: "us", Better: "lower"},
	{Name: "transport.msgs_per_node_round", Unit: "count", Better: "lower"},
	{Name: "transport.ctrl_msgs_per_node_round", Unit: "count", Better: "lower"},
	{Name: "transport.tryrecv_per_round", Unit: "count", Better: "lower"},
	{Name: "transport.send_errors", Unit: "count", Better: "lower"},

	{Name: "tcp.connect_ms", Unit: "ms", Better: "lower"},
	{Name: "tcp.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "tcp.msgs_per_flush", Unit: "count", Better: "higher"},
	{Name: "tcp.flushes_per_node_round", Unit: "count", Better: "lower"},
	{Name: "tcp.bytes_per_node_round", Unit: "B", Better: "lower"},

	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.estimate_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.lease_frame_bytes", Unit: "B", Better: "lower"},

	{Name: "statepub.publishes_per_round", Unit: "count", Better: "lower"},
	{Name: "statepub.load_ns", Unit: "ns", Better: "lower"},

	{Name: "ctlplane.fanout_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ctlplane.post_budget_us_p50", Unit: "us", Better: "lower"},
	{Name: "ctlplane.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "ctlplane.enqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "ctlplane.drain_idle_ns", Unit: "ns", Better: "lower"},
	{Name: "ctlplane.drain_apply_us", Unit: "us", Better: "lower"},
	{Name: "ctlplane.coalesced_frac", Unit: "frac", Better: "lower"},
	{Name: "ctlplane.get_caps_us_p50", Unit: "us", Better: "lower"},
	{Name: "ctlplane.get_caps_us_p99", Unit: "us", Better: "lower"},
	{Name: "ctlplane.get_health_us_p50", Unit: "us", Better: "lower"},
	{Name: "ctlplane.get_metrics_us_p50", Unit: "us", Better: "lower"},
	{Name: "ctlplane.get_metrics_us_p99", Unit: "us", Better: "lower"},
	{Name: "ctlplane.capsbody_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "ctlplane.capsbody_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "ctlplane.body_bytes_caps", Unit: "B", Better: "lower"},
	{Name: "ctlplane.body_bytes_metrics", Unit: "B", Better: "lower"},
	{Name: "ctlplane.http_errors", Unit: "count", Better: "lower"},

	{Name: "hieragent.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "hieragent.step_us_p99", Unit: "us", Better: "lower"},
	{Name: "hieragent.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "hieragent.lease_settle_ms", Unit: "ms", Better: "lower"},
	{Name: "hieragent.lease_changes", Unit: "count", Better: "lower"},
	{Name: "hieragent.renewals_per_kround", Unit: "count", Better: "lower"},
	{Name: "hieragent.demotions", Unit: "count", Better: "lower"},
	{Name: "hieragent.frozen_node_rounds", Unit: "count", Better: "lower"},
	{Name: "hieragent.lease_sum_gap_mw_final", Unit: "mW", Better: "lower"},

	{Name: "engine.step_us", Unit: "us", Better: "lower"},
	{Name: "engine.stepparallel_us", Unit: "us", Better: "lower"},
	{Name: "engine.stepauto_us", Unit: "us", Better: "lower"},
	{Name: "engine.parallel_speedup", Unit: "frac", Better: "higher"},
	{Name: "engine.setbudget_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "cluster.newsim_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.run_s", Unit: "s", Better: "lower"},
	{Name: "cluster.non_engine_frac", Unit: "frac", Better: "lower"},
	{Name: "cluster.over_budget_samples", Unit: "count", Better: "lower"},
	{Name: "cluster.churned_total", Unit: "count", Better: "lower"},
	{Name: "solver.optimal_us", Unit: "us", Better: "lower"},

	{Name: "proc.cpu_user_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_sys_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_ms_per_kround", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower"},
}

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(o runOpts, r *report)
}

var workloads = []workloadDef{
	{"flat12-tcp", "the paper's 12-server ring over TCP loopback with budget writes by HTTP POST: sockets, flush coalescing and the write fan-out do the work, nodeRule almost none", runFlat12TCP},
	{"flat64-chan", "64 agents over in-process channels, writes by Enqueue: no tcp/wire/HTTP, so agent self time, the allocations per node-round and scheduler wake-ups set the rate", runFlat64Chan},
	{"hier16-tcp", "4 groups x 4 HierAgents over TCP: the only workload that runs lease floods, aggregate hellos and wire-v2 frames; reports steady rate and allocation quality", runHier16TCP},
	{"api12-mixed", "12 agents paced at 1 ms/round under 2 keep-alive HTTP clients mixing GETs with budget POSTs: statepub/ctlplane serve reads beside writes, about a quarter of GETs re-encode", runAPI12Mixed},
	{"sim8k-dynamic", "cluster.Sim at N=8192 with churn and budget steps: Engine.StepParallel, the oracle and the event loop do all the work and no agent or transport code runs", runSim8kDynamic},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
