package main

import (
	"powercap/internal/diba"
	"powercap/internal/stats"
)

// tracedAgg sums, over the traced epochs of a run, what the harness saw at
// each layer boundary of the agent runtime.
type tracedAgg struct {
	stepHist, selfHist, sendHist stats.LatencyHist

	nodeRounds, tracedRounds   int64
	sampledRounds              int64 // rounds whose transport calls were timed
	nodeWindowNs               int64 // Σ over nodes and epochs of the time the timers were on
	ab                         [2]struct{ ns, rounds int64 }
	stepNs, drainNs            int64
	sendNs, recvNs             int64
	drainIdleNs, drainIdles    int64
	drainApplyNs, drainApps    int64
	sends, ctrlSends, sendErrs int64
	tryRecvs                   int64
	stepErrors                 int64
	wire                       diba.WireStats
	pubSeq                     uint64
	connectMs                  []float64

	hier               bool
	frozenRounds       int64
	leaseChanges       int64
	leaseSettleMs      []float64
	renewals, demotion int64
	renewalRounds      int64
	leaseGapMw         float64
}

// add folds in one stopped cluster and its measured window.
func (a *tracedAgg) add(c *cluster, w *window) {
	a.nodeRounds += w.nodeRounds
	a.nodeWindowNs += c.ab[1].ns * int64(len(c.nodes))
	for m := range a.ab {
		a.ab[m].ns += c.ab[m].ns
		a.ab[m].rounds += c.ab[m].rounds
	}
	a.wire.MsgsSent += w.wire.MsgsSent
	a.wire.BytesSent += w.wire.BytesSent
	a.wire.Flushes += w.wire.Flushes
	a.pubSeq += w.pubSeq
	if c.spec.tcp {
		a.connectMs = append(a.connectMs, c.connectMs)
	}
	var settle int64
	for _, nd := range c.nodes {
		if nd.err != nil {
			a.stepErrors++
		}
		a.stepHist.Merge(&nd.stepHist)
		a.selfHist.Merge(&nd.selfHist)
		a.tracedRounds += nd.tracedRounds
		a.sampledRounds += nd.sampledRounds
		a.stepNs += nd.stepNs
		a.drainNs += nd.drainNs
		a.drainIdleNs += nd.drainIdleNs
		a.drainIdles += nd.drainIdles
		a.drainApplyNs += nd.drainApplyNs
		a.drainApps += nd.drainApps
		if tt := nd.tt; tt != nil {
			a.sendHist.Merge(&tt.sendHist)
			a.sendNs += tt.sendNs
			a.recvNs += tt.recvNs
			a.sends += tt.sends
			a.ctrlSends += tt.ctrlSends
			a.sendErrs += tt.sendErrs
			a.tryRecvs += tt.tryRecvs
		}
		if nd.hier != nil {
			a.hier = true
			a.frozenRounds += nd.frozenRounds
			a.leaseChanges += nd.leaseChanges
			if nd.lastLeaseChangeAt > settle {
				settle = nd.lastLeaseChangeAt
			}
			if s := nd.pub.Load(); s != nil {
				a.renewals += int64(s.Renewals)
				a.demotion += int64(s.Demotions)
				a.renewalRounds += int64(s.Round)
			}
		}
	}
	if a.hier {
		ms := 0.0
		if settle > w.startNs {
			ms = float64(settle-w.startNs) / 1e6
		}
		a.leaseSettleMs = append(a.leaseSettleMs, ms)
	}
}

func histUs(h *stats.LatencyHist, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report stores the per-layer metrics of the agent runtime.
func (a *tracedAgg) report(r *report, s *stepSamples) {
	rounds := float64(a.sampledRounds)
	layer := "agent"
	if a.hier {
		layer = "hieragent"
	}
	r.set(layer+".step_us_p50", histUs(&a.stepHist, 0.50))
	r.set(layer+".step_us_p99", histUs(&a.stepHist, 0.99))
	r.set(layer+".self_us_p50", histUs(&a.selfHist, 0.50))
	r.note(layer+".step_us_p50", "n=%d", a.stepHist.Count())
	r.set("agent.node_rounds", float64(a.nodeRounds))
	r.set("agent.step_errors", float64(a.stepErrors))

	r.set("transport.send_us_per_round", ratio(float64(a.sendNs)/1e3, rounds))
	r.set("transport.send_us_p50", histUs(&a.sendHist, 0.50))
	r.set("transport.recv_wait_us_per_round", ratio(float64(a.recvNs)/1e3, rounds))
	r.set("transport.msgs_per_node_round", ratio(float64(a.sends), rounds))
	r.set("transport.ctrl_msgs_per_node_round", ratio(float64(a.ctrlSends), rounds))
	r.set("transport.tryrecv_per_round", ratio(float64(a.tryRecvs), rounds))
	r.set("transport.send_errors", float64(a.sendErrs))

	r.set("tcp.connect_ms", median(a.connectMs))
	r.set("tcp.bytes_per_msg", ratio(float64(a.wire.BytesSent), float64(a.wire.MsgsSent)))
	r.set("tcp.msgs_per_flush", ratio(float64(a.wire.MsgsSent), float64(a.wire.Flushes)))
	r.set("tcp.flushes_per_node_round", ratio(float64(a.wire.Flushes), float64(a.nodeRounds)))
	r.set("tcp.bytes_per_node_round", ratio(float64(a.wire.BytesSent), float64(a.nodeRounds)))

	r.set("statepub.publishes_per_round", ratio(float64(a.pubSeq), float64(a.nodeRounds)))
	r.set("ctlplane.drain_idle_ns", ratio(float64(a.drainIdleNs), float64(a.drainIdles)))
	r.set("ctlplane.drain_apply_us", ratio(float64(a.drainApplyNs)/1e3, float64(a.drainApps)))

	if s != nil {
		r.set("agent.round_skew_max", float64(s.skewMax))
		r.setTiming(summarize(s.roundsTo99, 50), 1, "agent.rounds_to_99_p50", "")
		r.setTiming(summarize(s.fanoutMs, 50), 1, "ctlplane.fanout_ms_p50", "")
		r.setTiming(summarize(s.postUs, 50), 1, "ctlplane.post_budget_us_p50", "")
		r.setTiming(summarize(s.queueWaitUs, 50), 1, "ctlplane.queue_wait_us_p50", "")
		r.set("ctlplane.coalesced_frac", ratio(float64(s.coalesced), float64(s.posts)))
	}
	if a.hier {
		r.set("hieragent.lease_settle_ms", median(a.leaseSettleMs))
		r.set("hieragent.lease_changes", float64(a.leaseChanges))
		r.set("hieragent.renewals_per_kround", ratio(float64(a.renewals)*1e3, float64(a.renewalRounds)))
		r.set("hieragent.demotions", float64(a.demotion))
		r.set("hieragent.frozen_node_rounds", float64(a.frozenRounds))
		r.set("hieragent.lease_sum_gap_mw_final", a.leaseGapMw)
	}

	// The stack has to add up: per node, the time inside StepOnce (send +
	// recv wait + self) plus the time inside Drain is the whole window but
	// for the harness's own loop.
	r.set("harness.loop_coverage_frac", ratio(float64(a.stepNs+a.drainNs), float64(a.nodeWindowNs)))
	on := ratio(float64(a.ab[1].rounds), float64(a.ab[1].ns))
	off := ratio(float64(a.ab[0].rounds), float64(a.ab[0].ns))
	r.set("trace.overhead_frac", 1-ratio(on, off))
	r.note("trace.overhead_frac", "%.0f node-rounds/s with the timers on, %.0f in the slices with them off", on*1e9, off*1e9)
}
