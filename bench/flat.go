package main

import (
	"runtime"
	"strconv"
	"time"

	"powercap/internal/ctlplane"
	"powercap/internal/solver"
)

const (
	// settle is how long after a step reached 99% the operator issues the
	// next write.
	settle = 5 * time.Millisecond
	// stepTimeout fails a step that is not at 99% by then.
	stepTimeout = 2 * time.Second
	// pollEvery is how often the operator looks at the published snapshots
	// to decide that a step is over. It only schedules the next write; the
	// step's times come from the merged logs, not from the poll.
	pollEvery = 200 * time.Microsecond
)

// stepSamples pools what the budget steps of a run measured.
type stepSamples struct {
	cutCompliantMs, cutT99Ms, raiseT99Ms []float64
	roundsTo99                           []float64 // cuts
	fanoutMs, postUs, queueWaitUs        []float64
	posts, coalesced                     int
	skewMax                              int
}

// operator is the one client that changes the budget: it writes the new
// value to every node in turn, watches for the step to finish, reads the
// step's exact times off the nodes' logs, waits settle and goes again.
type operator struct {
	c      *cluster
	r      *report
	s      *stepSamples
	bodies map[float64][]byte
	conns  []*httpConn // a keep-alive connection per node, on a listening cluster
	ackAt  []int64
	logs   [][]rec
	v      view
}

// budgetBody is the POST /v1/budget body that sets the budget to w.
func budgetBody(w float64) []byte {
	return []byte(`{"budget_w":` + strconv.FormatFloat(w, 'f', -1, 64) + `}`)
}

// newOperator readies an operator that will write the given levels. On a
// listening cluster it dials its connections now: ctlplane's server drops a
// connection that sends no request within 5 s of being accepted, so they
// are opened when the operator is about to write, not with the cluster.
func newOperator(c *cluster, r *report, s *stepSamples, levels ...float64) (*operator, error) {
	o := &operator{c: c, r: r, s: s, bodies: map[float64][]byte{},
		ackAt: make([]int64, len(c.nodes)), logs: make([][]rec, len(c.nodes))}
	for _, b := range levels {
		o.bodies[b] = budgetBody(b)
	}
	if c.spec.listen {
		for _, nd := range c.nodes {
			h, err := dialHTTP(nd.api.Addr())
			if err != nil {
				o.close()
				return nil, err
			}
			o.conns = append(o.conns, h)
		}
	}
	return o, nil
}

func (o *operator) close() {
	for _, h := range o.conns {
		h.close()
	}
}

// write sends the budget to node i and reports whether the node took it.
func (o *operator) write(i int, budgetW float64) bool {
	o.s.posts++
	if o.conns != nil {
		status, _, err := o.conns[i].post("/v1/budget", o.bodies[budgetW])
		return o.r.op(err == nil && status == 202, "%s: POST /v1/budget to node %d: status %d, %v", o.c.spec.name, i, status, err)
	}
	coalesced, err := o.c.nodes[i].api.Enqueue(ctlplane.Command{Kind: ctlplane.CmdSetBudget, Key: "budget", BudgetW: budgetW})
	if coalesced {
		o.s.coalesced++
	}
	return o.r.op(err == nil, "%s: Enqueue on node %d: %v", o.c.spec.name, i, err)
}

// step moves the cluster to target and returns the instant it got within
// wantU of the oracle, on the process clock, or false if it did not.
func (o *operator) step(cut bool, target, wantU float64) (int64, bool) {
	c := o.c
	seq := c.stepSeq.Add(1)
	traced := c.tracing.Load()
	id, full := int(seq), false
	if traced {
		id, full = c.trc.nextStep()
	}
	if full {
		c.spanStep.Store(int64(id))
	}
	noteGoroutines()
	t0 := nanotime()
	for i := range c.nodes {
		start := nanotime()
		o.write(i, target)
		o.ackAt[i] = nanotime()
		o.s.postUs = append(o.s.postUs, float64(o.ackAt[i]-start)/1e3)
		if full {
			c.opSpans.add(span{Kind: spanPost, Node: i, Step: id, Start: start, End: o.ackAt[i]})
		}
	}
	fanout := nanotime() - t0

	// Wait for the step to finish, as seen from outside.
	closed := false
	for nanotime()-t0 < int64(stepTimeout) && !c.aborted.Load() {
		c.observe(&o.v)
		if skew := o.v.maxRound - o.v.minRound; skew > o.s.skewMax {
			o.s.skewMax = skew
		}
		if o.v.allBudgets(target) && o.v.sumCap <= target && o.v.sumU >= wantU {
			closed = true
			break
		}
		time.Sleep(pollEvery)
	}
	c.spanStep.Store(0)
	kind := "raise"
	if cut {
		kind = "cut"
	}
	if !o.r.op(closed, "%s: %s step %d not at 99%% within %v (ΣCapW %.2f of %.0f, Σu %.5f of %.5f)",
		c.spec.name, kind, seq, stepTimeout, o.v.sumCap, target, o.v.sumU, wantU) {
		return 0, false
	}

	// The exact times, from the time-ordered merge of the nodes' logs. A
	// node may still be a few instructions short of logging the round the
	// poll just saw published, hence the retries.
	var st stepTimes
	for try := 0; try < 50; try++ {
		for i, nd := range c.nodes {
			o.logs[i] = nd.logs[seq&1].entries()
		}
		if st = mergeStep(o.logs, t0, target, c.us, wantU); st.T99Ns >= 0 {
			break
		}
		time.Sleep(pollEvery)
	}
	if !o.r.op(st.T99Ns >= 0, "%s: %s step %d closed but its logs do not show it (log full?)", c.spec.name, kind, seq) {
		return 0, false
	}
	o.r.op(st.SumCapAtT99 <= target, "%s: %s step %d closed at ΣCapW %.6f over budget %.0f", c.spec.name, kind, seq, st.SumCapAtT99, target)
	if cut {
		o.s.cutCompliantMs = append(o.s.cutCompliantMs, float64(st.CompliantNs)/1e6)
		o.s.cutT99Ms = append(o.s.cutT99Ms, float64(st.T99Ns)/1e6)
		o.s.roundsTo99 = append(o.s.roundsTo99, st.RoundsTo99)
	} else {
		o.s.raiseT99Ms = append(o.s.raiseT99Ms, float64(st.T99Ns)/1e6)
	}
	o.s.fanoutMs = append(o.s.fanoutMs, float64(fanout)/1e6)
	if traced {
		o.traceStep(id, kind, t0, fanout, st, full)
	}
	return t0 + st.T99Ns, true
}

// traceStep leaves the step's summary, and for the first steps its own
// spans, in the trace.
func (o *operator) traceStep(id int, kind string, t0, fanout int64, st stepTimes, full bool) {
	c := o.c
	sum := stepSummary{Step: id, Kind: kind, StartNs: t0, CompliantMs: float64(st.CompliantNs) / 1e6,
		T99Ms: float64(st.T99Ns) / 1e6, RoundsTo99: st.RoundsTo99, FanoutMs: float64(fanout) / 1e6}
	end := t0 + st.T99Ns
	var wait float64
	for i, nd := range c.nodes {
		applied := nd.appliedAt.Load()
		w := applied - o.ackAt[i]
		if w < 0 {
			w = 0 // applied before the acknowledgement got back
		}
		o.s.queueWaitUs = append(o.s.queueWaitUs, float64(w)/1e3)
		wait += float64(w) / 1e3
		if full {
			c.opSpans.add(span{Kind: spanQueueWait, Node: i, Step: id, Start: o.ackAt[i], End: o.ackAt[i] + w})
		}
		l := o.logs[i]
		last := l[0]
		for _, e := range l {
			if e.T > end {
				break
			}
			last = e
		}
		// Send and recv-wait are timed on a sample of the rounds; scale
		// them to all the step's rounds by the time those rounds took.
		stepNs := float64(last.StepNs - l[0].StepNs)
		scale := ratio(stepNs, float64(last.SampledNs-l[0].SampledNs))
		sum.RoundUs += stepNs / 1e3
		sum.SendUs += scale * float64(last.SendNs-l[0].SendNs) / 1e3
		sum.RecvWaitUs += scale * float64(last.RecvNs-l[0].RecvNs) / 1e3
	}
	sum.SelfUs = sum.RoundUs - sum.SendUs - sum.RecvWaitUs
	sum.QueueWaitUs = wait / float64(len(c.nodes))
	c.trc.steps = append(c.trc.steps, sum)
	if full {
		c.opSpans.add(span{Kind: spanStep, Node: -1, Step: id, Start: t0, End: end})
	}
}

// cycle alternates HI→LO and LO→HI steps until the clock passes untilNs.
// The cluster starts and ends under hi. In a traced run every second cycle
// runs with the timers off.
func (o *operator) cycle(untilNs int64, hi, lo, wantHi, wantLo float64) {
	time.Sleep(settle) // set-up ended the instant 99% was reached, like a step
	for k := 0; nanotime() < untilNs && !o.c.aborted.Load(); k++ {
		o.c.setTracing(k%2 == 0)
		for _, cut := range []bool{true, false} {
			target, want := hi, wantHi
			if cut {
				target, want = lo, wantLo
			}
			at, ok := o.step(cut, target, want)
			if !ok {
				at = nanotime()
			}
			time.Sleep(time.Duration(at + int64(settle) - nanotime()))
		}
	}
}

// flatRun is a flat-cluster workload's run: the epochs and their budget
// steps.
type flatRun struct {
	agentRun
	steps stepSamples
}

// runFlat runs a flat workload as a series of epochs. Each builds the
// cluster afresh on the seed's next draw of utilities, brings it to its
// first steady state (that is the set-up), runs load for its share of the
// measured time, stops every node at a common round, checks the outputs and
// tears everything down. Pooling epochs is what steadies the numbers over
// seeds, and gives set-up a median.
func runFlat(spec clusterSpec, o runOpts, r *report, epochs int, trc *tracer) *flatRun {
	run := new(flatRun)
	n := spec.n
	hi, lo := float64(budgetHiPerNode*n), float64(budgetLoPerNode*n)
	spec.budgetW = hi
	for epoch := 0; epoch < epochs; epoch++ {
		before := runtime.NumGoroutine()
		start := time.Now()
		us, err := ringUtilities(n, catalogOrder(), epochRNG(o.seed, epoch))
		if !r.op(err == nil, "%s: inputs: %v", spec.name, err) {
			return run
		}
		optHi, errHi := solver.Optimal(us, hi)
		optLo, errLo := solver.Optimal(us, lo)
		if !r.op(errHi == nil && errLo == nil, "%s: oracle: %v %v", spec.name, errHi, errLo) {
			return run
		}
		wantHi, wantLo := 0.99*optHi.Utility, 0.99*optLo.Utility
		c, err := startCluster(spec, us, trc)
		if !r.op(err == nil, "%s: set-up: %v", spec.name, err) {
			return run
		}
		err = c.waitSteady(hi, wantHi, 10*time.Second)
		r.op(err == nil, "%s: set-up: %v", spec.name, err)
		op, err := newOperator(c, r, &run.steps, hi, lo)
		r.op(err == nil, "%s: set-up: %v", spec.name, err)
		setupS := time.Since(start).Seconds()
		w := c.beginWindow()
		if err == nil {
			op.cycle(w.startNs+int64(o.seconds/float64(epochs)*1e9), hi, lo, wantHi, wantLo)
			op.close()
		}
		c.endWindow(w)
		c.stop(w.rate())
		c.checkFinal(r, hi)
		run.addEpoch(c, w, setupS, c.utilOver(optHi.Utility))
		c.close()
		checkTornDown(r, spec.name, c.listeners, before)
	}
	return run
}

// report stores the flat end-to-end metrics the run measured.
func (run *flatRun) report(r *report) {
	run.agentRun.report(r)
	// The request of a flat workload is the budget cut.
	s := &run.steps
	cut := summarize(s.cutT99Ms, 90)
	r.setTiming(cut, 1, "op_ms_p50", "op_ms_p90")
	r.setTiming(cut, 1, "cut_t99_ms_p50", "cut_t99_ms_p90")
	r.setTiming(summarize(s.cutCompliantMs, 50), 1, "cut_compliant_ms_p50", "")
	r.setTiming(summarize(s.raiseT99Ms, 50), 1, "raise_t99_ms_p50", "")
	r.set("ops_per_s", ratio(float64(len(s.cutT99Ms)+len(s.raiseT99Ms)), run.windowS))
	r.note("ops_per_s", "budget steps closed, cuts and raises")
}

const flatEpochs = 6

func runFlat12TCP(o runOpts, r *report) {
	trc := newTracerIf(o.traced, true)
	run := runFlat(clusterSpec{name: "flat12-tcp", n: 12, tcp: true, listen: true}, o, r, flatEpochs, trc)
	finishFlat(run, o, r, trc, "flat12-tcp")
}

func runFlat64Chan(o runOpts, r *report) {
	trc := newTracerIf(o.traced, true)
	run := runFlat(clusterSpec{name: "flat64-chan", n: 64}, o, r, flatEpochs, trc)
	finishFlat(run, o, r, trc, "flat64-chan")
}

func finishFlat(run *flatRun, o runOpts, r *report, trc *tracer, name string) {
	if trc == nil {
		run.report(r)
		return
	}
	run.agg.report(r, &run.steps)
	if name == "flat12-tcp" {
		microWire(r)
		microCtlplane(r)
	}
	finishTrace(trc, o, r, name)
}
