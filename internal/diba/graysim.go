package diba

import (
	"fmt"

	"powercap/internal/workload"
)

// graysim.go is a deterministic virtual-time model of a DiBA ring with one
// gray (slowed, alive) node, used by the pinned `repro grayfail` experiment
// and TestGraySimDeterministicAndTolerant. Real-agent runs of the same
// scenario are wall-clock driven and therefore unpinnable; this model
// replaces the clock with discrete slots — every healthy link delivers in
// 1 slot, every link touching the slow node in Sigma slots — while running
// the *exact* round arithmetic (nodeRule/edgeTransfer) and the exact
// stale-settlement algebra of straggler.go. That makes both the
// performance claim (a fixed-deadline ring throttles to the slow node's
// pace; a straggler-tolerant ring does not) and the conservation claim
// (every substituted round settles back to Σe = Σp − B) reproducible
// bitwise.
//
// The timing model is max-plus: node i starts round r+1 when its round-r
// inputs are satisfied, so with fixed deadlines the ring's asymptotic round
// period is the maximum cycle mean of the latency graph — Sigma, set by the
// two-slot cycle across either slow link. With straggler tolerance every
// input is satisfied no later than the adaptive deadline, so the period is
// bounded by the deadline regardless of Sigma.

// graySimDeadline is the tolerant per-peer deadline in slots: the converged
// value of the adaptive estimator on a healthy 1-slot link (srtt 1, low
// variance, clamped at 2× the healthy round trip).
const graySimDeadline = 2

// graySimStallSlots classifies a round as stalled when it takes longer
// than this many slots — 3× the healthy round period.
const graySimStallSlots = 3

// GraySimConfig configures one virtual-time gray-failure run.
type GraySimConfig struct {
	N        int  // ring size (>= 3)
	Slow     int  // id of the gray node
	Sigma    int  // latency of the slow node's links, in slots (healthy = 1)
	Tolerant bool // straggler-tolerant gather vs fixed-deadline baseline
	Rounds   int  // BSP rounds every node executes
	MaxLag   int  // substitution staleness bound (0 selects 8, as FaultPolicy)
	BudgetW  float64
	Util     []workload.Utility // one per node
	Cfg      Config
}

// GraySimResult summarizes one run.
type GraySimResult struct {
	Rounds        int     // rounds executed per node
	Slots         float64 // virtual time at which the last node finished
	SlotsPerRound float64 // asymptotic round period (Slots / Rounds)
	StalledRounds int     // node-rounds that took > graySimStallSlots
	Substituted   int     // stale-proceed mitigations
	SoftExcluded  int     // soft-exclude mitigations
	Outstanding   int     // records never settled (0: every frame arrived)
	// MaxAbsGap is |Σe − (Σp − B)| after every node finished and every
	// in-flight frame settled — the conservation invariant.
	MaxAbsGap float64
	// SlowDeclaredDead would be a false death of the beaconing slow node;
	// the model cannot produce one (there is no silence), it is reported
	// for symmetry with the real-agent gates.
	SlowDeclaredDead bool
}

// RunGraySim executes the model.
func RunGraySim(sc GraySimConfig) (GraySimResult, error) {
	if sc.N < 3 {
		return GraySimResult{}, fmt.Errorf("diba: graysim needs N >= 3, got %d", sc.N)
	}
	if sc.Slow < 0 || sc.Slow >= sc.N {
		return GraySimResult{}, fmt.Errorf("diba: graysim slow node %d out of range", sc.Slow)
	}
	if sc.Sigma < 1 {
		return GraySimResult{}, fmt.Errorf("diba: graysim sigma %d must be >= 1", sc.Sigma)
	}
	if len(sc.Util) != sc.N {
		return GraySimResult{}, fmt.Errorf("diba: graysim has %d utilities for %d nodes", len(sc.Util), sc.N)
	}
	cfg := sc.Cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return GraySimResult{}, err
	}
	maxLag := sc.MaxLag
	if maxLag <= 0 {
		maxLag = 8
	}

	var totalIdle float64
	for _, u := range sc.Util {
		totalIdle += u.MinPower()
	}
	share := (totalIdle - sc.BudgetW) / float64(sc.N)
	if share >= 0 {
		return GraySimResult{}, fmt.Errorf("diba: graysim budget %.1f cannot cover idle power %.1f", sc.BudgetW, totalIdle)
	}

	lat := func(from, to int) float64 {
		if from == sc.Slow || to == sc.Slow {
			return float64(sc.Sigma)
		}
		return 1
	}
	left := func(i int) int { return (i - 1 + sc.N) % sc.N }
	right := func(i int) int { return (i + 1) % sc.N }

	type settleRec struct {
		peer    int
		round   int
		tStale  float64
		ownE    float64
		trueArr float64
	}

	n, R := sc.N, sc.Rounds
	e := make([]float64, n)
	p := make([]float64, n)
	comp := make([]float64, n)
	pending := make([][]settleRec, n)
	// bcastAt[i][r] / bcastE[i][r]: the slot node i broadcast round r at,
	// and the estimate that broadcast carried.
	bcastAt := make([][]float64, n)
	bcastE := make([][]float64, n)
	for i := 0; i < n; i++ {
		e[i] = share
		p[i] = sc.Util[i].MinPower()
		bcastAt[i] = make([]float64, R+1)
		bcastE[i] = make([]float64, R)
	}

	res := GraySimResult{Rounds: R}
	nbrE := make([]float64, 0, 2)
	nbrDeg := make([]int32, 0, 2)
	for r := 0; r < R; r++ {
		for i := 0; i < n; i++ {
			bcastE[i][r] = e[i]
		}
		rcfg := cfg
		rcfg.Eta = cfg.etaAt(r)
		for i := 0; i < n; i++ {
			start := bcastAt[i][r]
			tDone := start
			nbrE = nbrE[:0]
			nbrDeg = nbrDeg[:0]
			for _, nb := range []int{left(i), right(i)} {
				arr := bcastAt[nb][r] + lat(nb, i)
				if !sc.Tolerant || arr <= start+graySimDeadline {
					if arr > tDone {
						tDone = arr
					}
					nbrE = append(nbrE, bcastE[nb][r])
					nbrDeg = append(nbrDeg, 2)
					continue
				}
				// Adaptive deadline fired: mitigate exactly as
				// straggler.go does. The freshest frame already arrived
				// by the deadline stands in if it is recent enough.
				deadline := start + graySimDeadline
				if deadline > tDone {
					tDone = deadline
				}
				stale := -1
				for rr := r - 1; rr >= 0 && r-rr <= maxLag; rr-- {
					if bcastAt[nb][rr]+lat(nb, i) <= deadline {
						stale = rr
						break
					}
				}
				rec := settleRec{peer: nb, round: r, ownE: e[i], trueArr: arr}
				if stale >= 0 {
					rec.tStale = edgeTransfer(cfg, e[i], bcastE[nb][stale], 2, 2)
					nbrE = append(nbrE, bcastE[nb][stale])
					nbrDeg = append(nbrDeg, 2)
					res.Substituted++
				} else {
					res.SoftExcluded++
				}
				pending[i] = append(pending[i], rec)
			}
			phat, outflow := nodeRule(rcfg, sc.Util[i], p[i], e[i], 2, nbrE, nbrDeg)
			p[i] += phat
			// Grouped exactly as Agent.runRound / Engine.Step.
			e[i] = e[i] + phat - outflow
			if tDone-start > graySimStallSlots {
				res.StalledRounds++
			}
			// Settle every record whose true frame has landed by the end
			// of this round, then fold the corrections — after the exact
			// grouping, like finishRound.
			keep := pending[i][:0]
			for _, rec := range pending[i] {
				if rec.trueArr <= tDone {
					tTrue := edgeTransfer(cfg, rec.ownE, bcastE[rec.peer][rec.round], 2, 2)
					comp[i] += rec.tStale - tTrue
				} else {
					keep = append(keep, rec)
				}
			}
			pending[i] = keep
			if comp[i] != 0 {
				e[i] += comp[i]
				comp[i] = 0
			}
			bcastAt[i][r+1] = tDone
			if bcastAt[i][r+1] > res.Slots {
				res.Slots = bcastAt[i][r+1]
			}
		}
	}
	// Drain: every broadcast frame eventually arrives; settle what is
	// still outstanding.
	for i := 0; i < n; i++ {
		for _, rec := range pending[i] {
			tTrue := edgeTransfer(cfg, rec.ownE, bcastE[rec.peer][rec.round], 2, 2)
			comp[i] += rec.tStale - tTrue
		}
		pending[i] = nil
		if comp[i] != 0 {
			e[i] += comp[i]
			comp[i] = 0
		}
	}
	res.Outstanding = 0
	var sumE, sumP float64
	for i := 0; i < n; i++ {
		sumE += e[i]
		sumP += p[i]
	}
	gap := sumE - (sumP - sc.BudgetW)
	if gap < 0 {
		gap = -gap
	}
	res.MaxAbsGap = gap
	if R > 0 {
		res.SlotsPerRound = res.Slots / float64(R)
	}
	return res, nil
}
