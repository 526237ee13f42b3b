package main

import (
	"runtime"
	"time"

	"powercap/internal/diba"
	"powercap/internal/metrics"
	"powercap/internal/solver"
	"powercap/internal/workload"
)

// hierGroups is hier16-tcp's placement: group 0 compute bound, group 3
// memory bound, groups 1 and 2 in between, so that the lease protocol has
// budget to move from one end of the upper ring to the other.
var hierGroups = [4][4]string{
	{"EP", "HPL", "LU", "HPL"},
	{"BT", "SP", "FT", "MG"},
	{"MG", "FT", "SP", "BT"},
	{"IS", "RA", "CG", "RA"},
}

const (
	hierEpochs = 4
	// hierReadyFrac of the flat oracle ends a hierarchical cluster's
	// set-up: lease migration plateaus below 99%, so the flat workloads'
	// threshold would never be met.
	hierReadyFrac = 0.90
)

func runHier16TCP(o runOpts, r *report) {
	const name = "hier16-tcp"
	trc := newTracerIf(o.traced, false)
	var names []string
	topo := diba.HierTopo{IdleW: workload.DefaultServer.IdleWatts}
	for g, group := range hierGroups {
		var ids []int
		for k, bench := range group {
			ids = append(ids, g*len(group)+k)
			names = append(names, bench)
		}
		topo.Groups = append(topo.Groups, ids)
	}
	n := len(names)
	topo.BudgetW = float64(budgetHierPerNode * n)
	spec := clusterSpec{name: name, n: n, tcp: true, listen: true, hier: &topo, budgetW: topo.BudgetW, roundTimes: true}

	var run agentRun
	var roundMs []float64
	for epoch := 0; epoch < hierEpochs; epoch++ {
		before := runtime.NumGoroutine()
		start := time.Now()
		us, err := ringUtilities(n, names, epochRNG(o.seed, epoch))
		if !r.op(err == nil, "%s: inputs: %v", name, err) {
			return
		}
		opt, err := solver.Optimal(us, topo.BudgetW)
		if !r.op(err == nil, "%s: oracle: %v", name, err) {
			return
		}
		c, err := startCluster(spec, us, trc)
		if !r.op(err == nil, "%s: set-up: %v", name, err) {
			return
		}
		err = c.waitSteady(topo.BudgetW, hierReadyFrac*opt.Utility, 10*time.Second)
		r.op(err == nil, "%s: set-up: %v", name, err)
		setupS := time.Since(start).Seconds()

		w := c.beginWindow()
		holdWindow(c, w.startNs+int64(o.seconds/hierEpochs*1e9))
		c.endWindow(w)
		// A hierarchy's budget is the lease protocol's to move: the reason
		// this workload has no budget steps.
		if h, err := dialHTTP(c.nodes[0].api.Addr()); r.op(err == nil, "%s: %v", name, err) {
			status, _, err := h.post("/v1/budget", budgetBody(topo.BudgetW))
			r.op(err == nil && status == 409, "%s: POST /v1/budget answered %d, %v; want 409", name, status, err)
			h.close()
		}
		c.stop(w.rate())
		c.checkFinal(r, 0)
		sumCap := metrics.TotalPower(c.caps())
		var leases int64
		for _, members := range topo.Groups {
			leases += c.nodes[members[0]].hier.Lease()
		}
		r.op(sumCap <= topo.BudgetW, "%s: epoch %d ended at ΣCapW %.6f over budget %.0f", name, epoch, sumCap, topo.BudgetW)
		run.addEpoch(c, w, setupS, c.utilOver(opt.Utility))
		run.agg.leaseGapMw = float64(leases - diba.LeaseMilliwatts(topo.BudgetW))
		for _, nd := range c.nodes {
			for _, ns := range nd.roundNs {
				roundMs = append(roundMs, float64(ns)/1e6)
			}
		}
		c.close()
		checkTornDown(r, name, c.listeners, before)
	}
	if trc != nil {
		run.agg.report(r, nil)
		finishTrace(trc, o, r, name)
		return
	}
	run.report(r)
	r.set("hier_util_frac", median(run.utilFrac))
	r.note("util_frac", "of the flat oracle")
	// Budget writes answer 409 here, so the request is the round itself:
	// one node's Step and Drain, timed from the end of its previous round.
	r.setTiming(summarize(roundMs, 90), 1, "op_ms_p50", "op_ms_p90")
	r.set("ops_per_s", ratio(float64(run.nodeRounds), run.windowS))
	r.note("ops_per_s", "node-rounds completed, all 16 nodes")
}
