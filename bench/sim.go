package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"time"

	simcluster "powercap/internal/cluster"
	"powercap/internal/diba"
	"powercap/internal/solver"
	"powercap/internal/topology"
)

const (
	simN = 8192 // at or above the engine's switch to StepParallel
	// Each repetition simulates simSeconds at simRoundsPerS rounds a
	// second, with the budget stepping HI→LO→HI at simBudgetEvery.
	simSeconds     = 45
	simRoundsPerS  = 100
	simBudgetEvery = 15
	simChurn       = 0.005
)

// hashSamples folds every field of every sample into one number, bit for
// bit, so that two repetitions can be compared exactly.
func hashSamples(samples []simcluster.Sample) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range samples {
		put(uint64(s.Second))
		put(uint64(s.Churned))
		for _, f := range []float64{s.Budget, s.Power, s.Utility, s.OptUtility, s.SNP, s.OptSNP} {
			put(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// runSim8kDynamic runs fresh repetitions of one fixed simulation until the
// measured time is used up. The repetitions share the seed, so their
// samples have to be identical; their speed is the metric.
func runSim8kDynamic(o runOpts, r *report) {
	const name = "sim8k-dynamic"
	hi, lo := float64(budgetHiPerNode*simN), float64(budgetLoPerNode*simN)
	var events []simcluster.BudgetEvent
	for s, cut := simBudgetEvery, true; s < simSeconds; s, cut = s+simBudgetEvery, !cut {
		b := hi
		if cut {
			b = lo
		}
		events = append(events, simcluster.BudgetEvent{AtSecond: s, Budget: b})
	}
	cfg := simcluster.Config{N: simN, Seed: o.seed, RoundsPerSecond: simRoundsPerS, ChurnPerSecond: simChurn}

	var setupS, runS, utilFrac []float64
	var mallocs, allocBytes uint64
	var firstHash uint64
	var overBudget, churned int
	var worstOver float64
	var ab [2]struct {
		s    float64
		reps int
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		start := time.Now()
		sim, err := simcluster.NewSim(cfg, hi)
		if !r.op(err == nil, "%s: NewSim: %v", name, err) {
			return
		}
		setupS = append(setupS, time.Since(start).Seconds())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start = time.Now()
		samples, err := sim.Run(simSeconds, events)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		noteGoroutines()
		if !r.op(err == nil, "%s: Run: %v", name, err) {
			return
		}
		runS = append(runS, wall)
		ab[rep%2].s += wall
		ab[rep%2].reps++
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc

		r.op(len(samples) == simSeconds+1, "%s: %d samples for %d simulated seconds", name, len(samples), simSeconds)
		err = sim.Engine().CheckConservation(1e-6)
		r.op(err == nil, "%s: after the run: %v", name, err)
		if h := hashSamples(samples); rep == 0 {
			firstHash = h
			for _, s := range samples {
				if s.Power > s.Budget {
					overBudget++
					worstOver = math.Max(worstOver, s.Power/s.Budget-1)
				}
				churned += s.Churned
			}
		} else {
			r.op(h == firstHash, "%s: repetition %d's samples hash to %x, the first's to %x", name, rep, h, firstHash)
		}
		last := samples[len(samples)-1]
		r.op(last.Power <= last.Budget, "%s: ended at %.3f W over budget %.0f", name, last.Power, last.Budget)
		utilFrac = append(utilFrac, last.Utility/last.OptUtility)
	}
	rounds := float64(simSeconds * simRoundsPerS)
	nodeRounds := rounds * simN * float64(len(runS))
	if o.traced {
		r.set("agent.node_rounds", nodeRounds)
		r.set("cluster.newsim_ms", median(setupS)*1e3)
		r.set("cluster.run_s", median(runS))
		r.note("cluster.run_s", "median of %d repetitions", len(runS))
		r.set("cluster.over_budget_samples", float64(overBudget))
		r.note("cluster.over_budget_samples", "of %d in a repetition, the worst %.2f%% over", simSeconds+1, 100*worstOver)
		r.set("cluster.churned_total", float64(churned))
		stepAutoUs := microEngine(r, o.seed, hi, lo)
		r.set("cluster.non_engine_frac", 1-rounds*stepAutoUs/1e6/median(runS))
		// Nothing inside Run is traced, so its cost there is nil by
		// construction; the even repetitions against the odd ones show the
		// floor the other workloads' figure sits on.
		on, off := ratio(float64(ab[0].reps), ab[0].s), ratio(float64(ab[1].reps), ab[1].s)
		r.set("trace.overhead_frac", 1-ratio(on, off))
		r.set("trace.spans", 0)
		r.set("trace.dropped_spans", 0)
		return
	}
	r.set("setup_s", median(setupS))
	r.note("setup_s", "NewSim, median of %d", len(setupS))
	r.set("rounds_per_s", rounds/median(runS))
	r.note("rounds_per_s", "engine rounds per wall second, median of %d repetitions", len(runS))
	// The request is one simulated second: Run cannot be timed second by
	// second from outside, so each repetition gives one sample, its wall
	// time over the seconds it simulated.
	perSecondMs := make([]float64, len(runS))
	for i, s := range runS {
		perSecondMs[i] = s * 1e3 / simSeconds
	}
	r.setTiming(summarize(perSecondMs, 90), 1, "op_ms_p50", "op_ms_p90")
	r.set("ops_per_s", simSeconds/median(runS))
	r.set("sim_s_per_wall_s", simSeconds/median(runS))
	r.set("util_frac", median(utilFrac))
	r.set("allocs_per_node_round", float64(mallocs)/nodeRounds)
	r.set("alloc_bytes_per_node_round", float64(allocBytes)/nodeRounds)
}

var sinkFloat float64

// microEngine times the engine's entry points on an engine built like the
// simulator's, and the oracle on the same utilities. It returns the
// StepAuto time in µs.
func microEngine(r *report, seed int64, hi, lo float64) float64 {
	sim, err := simcluster.NewSim(simcluster.Config{N: simN, Seed: seed}, hi)
	if !r.op(err == nil, "engine probe: NewSim: %v", err) {
		return 0
	}
	us := sim.Utilities()
	en, err := diba.New(topology.Ring(simN), us, hi, diba.Config{})
	if !r.op(err == nil, "engine probe: %v", err) {
		return 0
	}
	const steps = 300
	for i := 0; i < steps; i++ { // past the cold transient
		en.StepAuto()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stepUs := perOp(steps, func() { sinkFloat = en.Step() }) / 1e3
	runtime.ReadMemStats(&m1)
	parUs := perOp(steps, func() { sinkFloat = en.StepParallel(0) }) / 1e3
	autoUs := perOp(steps, func() { sinkFloat = en.StepAuto() }) / 1e3
	r.set("engine.step_us", stepUs)
	r.set("engine.stepparallel_us", parUs)
	r.set("engine.stepauto_us", autoUs)
	r.set("engine.parallel_speedup", ratio(stepUs, parUs))
	r.note("engine.parallel_speedup", "GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	r.set("engine.allocs_per_step", float64(m1.Mallocs-m0.Mallocs)/steps)
	k := 0
	setOK := true
	r.set("engine.setbudget_us", perOp(20, func() {
		b := lo
		if k++; k%2 == 0 {
			b = hi
		}
		setOK = setOK && en.SetBudget(b) == nil
	})/1e3)
	solveOK := true
	r.set("solver.optimal_us", perOp(5, func() {
		res, err := solver.Optimal(us, hi)
		sinkFloat, solveOK = res.Utility, solveOK && err == nil
	})/1e3)
	r.op(setOK && solveOK, "engine probe: SetBudget or Optimal failed")
	return autoUs
}
