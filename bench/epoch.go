package main

import "time"

// abSlice is how long the traced run keeps its timers on or off at a
// stretch on the workloads that have no budget cycle to alternate by.
const abSlice = 100 * time.Millisecond

// holdWindow lets the cluster run until untilNs, alternating the traced
// run's timers by slice.
func holdWindow(c *cluster, untilNs int64) {
	for k := 0; !c.aborted.Load(); k++ {
		c.setTracing(k%2 == 0)
		noteGoroutines()
		left := time.Duration(untilNs - nanotime())
		if left <= 0 {
			return
		}
		if left > abSlice {
			left = abSlice
		}
		time.Sleep(left)
	}
}

// agentRun pools what the epochs of an agent workload measured, whatever
// its load was.
type agentRun struct {
	setupS, roundsPerS, utilFrac []float64
	mallocs, allocBytes          uint64
	nodeRounds                   int64
	windowS                      float64
	agg                          tracedAgg
}

// addEpoch folds in one epoch: its stopped cluster, the measured window,
// how long set-up took and the share of the oracle's utility it ended at.
func (a *agentRun) addEpoch(c *cluster, w *window, setupS, utilFrac float64) {
	a.setupS = append(a.setupS, setupS)
	a.roundsPerS = append(a.roundsPerS, w.rate())
	a.utilFrac = append(a.utilFrac, utilFrac)
	a.mallocs += w.mem.Mallocs
	a.allocBytes += w.mem.TotalAlloc
	a.nodeRounds += w.nodeRounds
	a.windowS += w.seconds()
	if c.trc != nil {
		a.agg.add(c, w)
	}
}

// report stores the end-to-end metrics every agent workload measures the
// same way.
func (a *agentRun) report(r *report) {
	r.set("setup_s", median(a.setupS))
	r.note("setup_s", "median of %d", len(a.setupS))
	r.set("rounds_per_s", median(a.roundsPerS))
	r.set("util_frac", median(a.utilFrac))
	r.set("allocs_per_node_round", ratio(float64(a.mallocs), float64(a.nodeRounds)))
	r.set("alloc_bytes_per_node_round", ratio(float64(a.allocBytes), float64(a.nodeRounds)))
}
