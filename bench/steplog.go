package main

import (
	"sync/atomic"

	"powercap/internal/workload"
)

// rec is one node's externally visible state right after a round: what its
// published snapshot says from instant T until the node's next rec.
type rec struct {
	T      int64 // ns on the process's monotonic clock
	Round  int32
	CapW   float64
	Budget float64
	// Cumulative ns the node has spent in StepOnce; in StepOnce on the
	// rounds that time their transport calls; and inside those in Send and
	// Recv. Traced runs only. A step's layer sums are differences of these.
	StepNs, SampledNs, SendNs, RecvNs int64
}

// stepLog is one node's preallocated record of a budget step. The node's
// driver goroutine is the only writer; it stores n after each append, so
// the coordinator may read entries [0, n) while the driver keeps going.
// Entry 0 is the node's state from before the step opened.
type stepLog struct {
	buf []rec
	n   atomic.Int64
}

func (l *stepLog) reset(first rec) {
	l.buf[0] = first
	l.n.Store(1)
}

// add appends r, or reports false when the step outlasted the log.
func (l *stepLog) add(r rec) bool {
	i := l.n.Load()
	if int(i) == len(l.buf) {
		return false
	}
	l.buf[i] = r
	l.n.Store(i + 1)
	return true
}

func (l *stepLog) entries() []rec { return l.buf[:l.n.Load()] }

// stepTimes is what a time-ordered merge of every node's log finds for one
// budget step. Times are ns after the step's first write; -1 means the
// event is not in the logs (yet).
type stepTimes struct {
	CompliantNs int64 // every node adopted the target and ΣCapW ≤ target
	T99Ns       int64 // compliant and Σuᵢ(CapWᵢ) ≥ want
	// RoundsTo99 is the mean over nodes of rounds completed between the
	// step opening and T99.
	RoundsTo99 float64
	// SumCapAtT99 is ΣCapW at the closing instant, for the output check.
	SumCapAtT99 float64
}

// mergeStep replays the nodes' logs in time order and finds the first
// instant the cluster was compliant with target and the first instant it
// was compliant and at want utility. logs[i][0] is node i's state before
// the step; ties in T replay in node order.
func mergeStep(logs [][]rec, t0 int64, target float64, us []workload.Utility, want float64) stepTimes {
	n := len(logs)
	out := stepTimes{CompliantNs: -1, T99Ns: -1}
	caps := make([]float64, n)
	adopted := make([]bool, n)
	head := make([]int, n)
	var sumCap, sumU float64
	nAdopted := 0
	for i, l := range logs {
		if len(l) == 0 {
			return out
		}
		caps[i] = l[0].CapW
		sumCap += caps[i]
		sumU += us[i].Value(caps[i])
		if adopted[i] = l[0].Budget == target; adopted[i] {
			nAdopted++
		}
		head[i] = 1
	}
	exact := func() (c, u float64) {
		for i := range caps {
			c += caps[i]
			u += us[i].Value(caps[i])
		}
		return c, u
	}
	for {
		next := -1
		for i, l := range logs {
			if head[i] < len(l) && (next < 0 || l[head[i]].T < logs[next][head[next]].T) {
				next = i
			}
		}
		if next < 0 {
			return out
		}
		r := logs[next][head[next]]
		head[next]++
		// The running sums steer; the decision is taken on sums recomputed
		// from scratch so that float drift cannot move a crossing.
		sumCap += r.CapW - caps[next]
		sumU += us[next].Value(r.CapW) - us[next].Value(caps[next])
		caps[next] = r.CapW
		if was := adopted[next]; was != (r.Budget == target) {
			adopted[next] = !was
			if was {
				nAdopted--
			} else {
				nAdopted++
			}
		}
		if nAdopted < n {
			continue
		}
		const slack = 1e-6
		if out.CompliantNs < 0 && sumCap <= target+slack {
			if c, _ := exact(); c <= target {
				out.CompliantNs = r.T - t0
			}
		}
		if out.CompliantNs >= 0 && sumU >= want-slack {
			if c, u := exact(); c <= target && u >= want {
				out.T99Ns = r.T - t0
				out.SumCapAtT99 = c
				var rounds float64
				for i, l := range logs {
					rounds += float64(l[head[i]-1].Round - l[0].Round)
				}
				out.RoundsTo99 = rounds / float64(n)
				return out
			}
		}
	}
}
