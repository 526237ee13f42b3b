package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"powercap/internal/des"
	"powercap/internal/netsim"
)

// Scenario is the composable multi-source simulation the shared-clock event
// core exists for: one description schedules budget steps, network
// partitions, sensor faults, and workload churn against the same clock,
// with optional DiBA round latency on every allocator refresh. Two runners
// execute it:
//
//   - RunScenarioEvents merges one des.EventSource per aspect under a
//     des.Scheduler — work is O(events), quiet servers cost nothing.
//   - RunScenarioTicks replays the identical logical events but pays the
//     legacy loop's cost model: a full O(N) sweep every simulated second
//     (recompute all demand sums from scratch), the way the pre-port
//     cluster loop re-evaluated every server every tick.
//
// Both runners drive the same cursor objects in the same total order, and
// all power state is integer milliwatts (exact arithmetic), so their
// ScenarioResults are bit-identical — the benchmark compares the cost of
// two loop structures doing provably the same work.
//
// Physical model: server i demands demand[i] mW (redrawn on churn). The
// allocator applies a uniform scale = min(1, budget/Σview), where view[i]
// is the demand the allocator believes — frozen at its last value while
// server i's sensor is faulted. Cluster power is scale·Σdemand, so stale
// views and frozen scales (during partitions, or while a refresh is in
// flight on a slow link) can push power above budget; samples count those
// violations.

// TimedBudget steps the cluster budget at a point in time.
type TimedBudget struct {
	AtSeconds float64
	BudgetW   float64
}

// FaultWindow marks one server's power sensor faulted during
// [StartSeconds, EndSeconds): the allocator keeps using the last reading.
type FaultWindow struct {
	Server       int
	StartSeconds float64
	EndSeconds   float64
}

// PartitionWindow marks the control plane partitioned during
// [StartSeconds, EndSeconds): allocator refreshes are suppressed and the
// current scale stays frozen until the partition heals.
type PartitionWindow struct {
	StartSeconds float64
	EndSeconds   float64
}

// Scenario describes one multi-source run. The zero values of the optional
// fields disable the corresponding aspect.
type Scenario struct {
	N              int
	Seed           int64
	HorizonSeconds int
	InitialBudgetW float64

	BudgetSteps []TimedBudget
	// ChurnPerSecond is each server's demand-redraw rate: cluster-wide churn
	// is a Poisson process with rate N·ChurnPerSecond.
	ChurnPerSecond float64
	SensorFaults   []FaultWindow
	Partitions     []PartitionWindow

	// SampleEverySeconds spaces the samples; 0 samples only at t=0 and the
	// horizon — the sparse regime where the event loop's advantage peaks.
	SampleEverySeconds int

	// Link, when set, charges every allocator refresh the sampled latency of
	// LinkRounds DiBA rounds over LinkNodes nodes (defaults 30 and 64); the
	// new scale applies only once the rounds complete.
	Link       *netsim.LinkModel
	LinkNodes  int
	LinkRounds int
}

// ScenarioSample is the cluster state observed at one sample instant.
type ScenarioSample struct {
	AtSeconds   float64
	BudgetW     float64
	DemandW     float64
	PowerW      float64
	Scale       float64
	Churned     uint64
	Faulted     int
	Partitioned bool
}

// ScenarioResult carries the samples plus the counters the desscale
// experiment pins and the benchmark compares. Steps and WorkUnits measure
// cost (event pops vs ticks; server-state visits); everything else is
// identical between the two runners by construction.
type ScenarioResult struct {
	Samples     []ScenarioSample
	Steps       uint64
	WorkUnits   uint64
	ChurnEvents uint64
	Refreshes   uint64
	Violations  int
	FinalPowerW float64
	// AllocLatencySeconds is the summed sampled refresh latency (0 without a
	// Link).
	AllocLatencySeconds float64
}

// RNG stream ids (des.PartitionedRNG): one per randomized aspect, so e.g.
// adding sensor faults to a scenario never perturbs the churn sequence.
const (
	streamDemand = 0
	streamChurn  = 1
	streamLink   = 2
)

// Cursor kinds double as same-time priorities (lower fires first), shared
// by the scheduler's registration order and the tick runner's merge.
const (
	scKindBudget = iota
	scKindFault
	scKindPartition
	scKindChurn
	scKindApply
	scKindSample
)

// demandMW draws one server's demand, uniform in [80, 200] W.
func demandMW(rng *rand.Rand) int64 { return 80_000 + rng.Int63n(120_001) }

// scnState is the shared cluster state both runners mutate through the
// same cursor fires in the same order. All sums are exact integers, which
// is what makes incremental updates (event loop) and full resweeps (tick
// loop) land on identical values.
type scnState struct {
	sc      Scenario
	horizon float64

	demand  []int64 // true demand, mW
	view    []int64 // allocator's believed demand, mW (frozen while faulted)
	faulted []bool
	sumTrue int64
	sumView int64

	budgetW   float64
	scale     float64
	partDepth int
	dirty     bool // refresh requested while partitioned
	nFaulted  int

	churned    uint64
	refreshes  uint64
	violations int
	latTotal   float64
	linkRNG    *rand.Rand
	applies    des.Heap // pending scale applications (Link mode only)

	samples []ScenarioSample
}

func (st *scnState) applyScale() {
	if st.sumView <= 0 {
		st.scale = 1
		return
	}
	s := st.budgetW * 1000 / float64(st.sumView)
	if s > 1 {
		s = 1
	}
	st.scale = s
}

// doRefresh recomputes the allocator scale, immediately or — with a link
// model — after the sampled round latency.
func (st *scnState) doRefresh(now float64) {
	st.refreshes++
	if st.sc.Link == nil {
		st.applyScale()
		return
	}
	var lat float64
	for r := 0; r < st.sc.LinkRounds; r++ {
		lat += float64(st.sc.Link.DiBARoundSampled(st.sc.LinkNodes, st.linkRNG))
	}
	lat /= 1e9 // ns → seconds
	st.latTotal += lat
	if at := now + lat; at <= st.horizon {
		st.applies.Push(des.Item{Time: at, Prio: scKindApply})
	}
}

// requestRefresh is called at every state change the allocator reacts to;
// during a partition it only marks the state dirty.
func (st *scnState) requestRefresh(now float64) {
	if st.partDepth > 0 {
		st.dirty = true
		return
	}
	st.doRefresh(now)
}

func (st *scnState) powerW() float64 {
	return st.scale * float64(st.sumTrue) / 1000
}

func (st *scnState) sample(at float64) {
	smp := ScenarioSample{
		AtSeconds:   at,
		BudgetW:     st.budgetW,
		DemandW:     float64(st.sumTrue) / 1000,
		PowerW:      st.powerW(),
		Scale:       st.scale,
		Churned:     st.churned,
		Faulted:     st.nFaulted,
		Partitioned: st.partDepth > 0,
	}
	if smp.PowerW > smp.BudgetW*(1+1e-9) {
		st.violations++
	}
	st.samples = append(st.samples, smp)
}

// resweep is the tick runner's per-second O(N) cost model: recompute every
// sum from per-server state, the way the legacy loop re-evaluated every
// server every tick. The integers must agree with the incrementally
// maintained values; a mismatch means the cursors and the sweep disagree
// about the world, which is a bug worth failing loudly on.
func (st *scnState) resweep() error {
	var sumTrue, sumView int64
	nFaulted := 0
	for i := range st.demand {
		sumTrue += st.demand[i]
		sumView += st.view[i]
		if st.faulted[i] {
			nFaulted++
		}
	}
	if sumTrue != st.sumTrue || sumView != st.sumView || nFaulted != st.nFaulted {
		return fmt.Errorf("cluster: scenario resweep mismatch: sums (%d,%d,%d) vs incremental (%d,%d,%d)",
			sumTrue, sumView, nFaulted, st.sumTrue, st.sumView, st.nFaulted)
	}
	return nil
}

func (st *scnState) result(steps, workUnits uint64) ScenarioResult {
	return ScenarioResult{
		Samples:             st.samples,
		Steps:               steps,
		WorkUnits:           workUnits,
		ChurnEvents:         st.churned,
		Refreshes:           st.refreshes,
		Violations:          st.violations,
		FinalPowerW:         st.powerW(),
		AllocLatencySeconds: st.latTotal,
	}
}

// scnCursor is one aspect's event stream. at() returns des.Never when
// exhausted; fire() processes exactly the event at() announced. The event
// runner adapts cursors to des.EventSources; the tick runner min-merges
// them directly — same objects, same order, same results.
type scnCursor interface {
	at() float64
	fire(st *scnState) error
}

// budgetCursor replays the sorted budget steps.
type budgetCursor struct {
	steps []TimedBudget
	idx   int
}

func (c *budgetCursor) at() float64 {
	if c.idx >= len(c.steps) {
		return des.Never
	}
	return c.steps[c.idx].AtSeconds
}

func (c *budgetCursor) fire(st *scnState) error {
	s := c.steps[c.idx]
	c.idx++
	st.budgetW = s.BudgetW
	st.requestRefresh(s.AtSeconds)
	return nil
}

// toggle is a fault or partition edge.
type toggle struct {
	t      float64
	server int
	on     bool
}

// faultCursor replays sensor fault set/clear edges.
type faultCursor struct {
	toggles []toggle
	idx     int
}

func (c *faultCursor) at() float64 {
	if c.idx >= len(c.toggles) {
		return des.Never
	}
	return c.toggles[c.idx].t
}

func (c *faultCursor) fire(st *scnState) error {
	tg := c.toggles[c.idx]
	c.idx++
	i := tg.server
	if tg.on {
		if !st.faulted[i] {
			st.faulted[i] = true
			st.nFaulted++
			// The view freezes at its current value; nothing changes until
			// the server churns underneath the stale reading.
		}
		return nil
	}
	if st.faulted[i] {
		st.faulted[i] = false
		st.nFaulted--
		// Resync the view with reality and let the allocator react.
		st.sumView += st.demand[i] - st.view[i]
		st.view[i] = st.demand[i]
		st.requestRefresh(tg.t)
	}
	return nil
}

// partitionCursor replays partition start/heal edges.
type partitionCursor struct {
	toggles []toggle
	idx     int
}

func (c *partitionCursor) at() float64 {
	if c.idx >= len(c.toggles) {
		return des.Never
	}
	return c.toggles[c.idx].t
}

func (c *partitionCursor) fire(st *scnState) error {
	tg := c.toggles[c.idx]
	c.idx++
	if tg.on {
		st.partDepth++
		return nil
	}
	st.partDepth--
	if st.partDepth == 0 && st.dirty {
		st.dirty = false
		st.doRefresh(tg.t)
	}
	return nil
}

// churnCursor generates the cluster-wide Poisson churn stream lazily: next
// inter-arrival, victim server, and fresh demand all come from one
// dedicated RNG stream, drawn in a fixed order, so both runners see the
// identical realization.
type churnCursor struct {
	rng  *rand.Rand
	rate float64 // N·ChurnPerSecond
	next float64
	end  float64
}

func newChurnCursor(rng *rand.Rand, n int, perSecond, horizon float64) *churnCursor {
	c := &churnCursor{rng: rng, rate: float64(n) * perSecond, end: horizon}
	if c.rate > 0 {
		c.next = rng.ExpFloat64() / c.rate
	} else {
		c.next = des.Never
	}
	return c
}

func (c *churnCursor) at() float64 {
	if c.next > c.end {
		return des.Never
	}
	return c.next
}

func (c *churnCursor) fire(st *scnState) error {
	now := c.next
	i := c.rng.Intn(len(st.demand))
	mw := demandMW(c.rng)
	st.sumTrue += mw - st.demand[i]
	st.demand[i] = mw
	if !st.faulted[i] {
		st.sumView += mw - st.view[i]
		st.view[i] = mw
	}
	st.churned++
	st.requestRefresh(now)
	c.next = now + c.rng.ExpFloat64()/c.rate
	return nil
}

// applyCursor drains the pending scale applications scheduled by link-mode
// refreshes.
type applyCursor struct {
	st *scnState
}

func (c *applyCursor) at() float64 {
	if c.st.applies.Len() == 0 {
		return des.Never
	}
	return c.st.applies.PeekTime()
}

func (c *applyCursor) fire(st *scnState) error {
	st.applies.Pop()
	st.applyScale()
	return nil
}

// sampleCursor emits the observation instants: t=0, every SampleEvery
// seconds, and the horizon.
type sampleCursor struct {
	next    float64
	every   float64
	horizon float64
	done    bool
}

func (c *sampleCursor) at() float64 {
	if c.done {
		return des.Never
	}
	return c.next
}

func (c *sampleCursor) fire(st *scnState) error {
	st.sample(c.next)
	if c.next >= c.horizon {
		c.done = true
		return nil
	}
	if c.every <= 0 {
		c.next = c.horizon
		return nil
	}
	c.next += c.every
	if c.next > c.horizon {
		c.next = c.horizon
	}
	return nil
}

// buildScenario validates the description and constructs the shared state
// plus the cursors in kind order — which is also the scheduler
// registration order and therefore the same-time tie-break everywhere.
func buildScenario(sc Scenario) (*scnState, []scnCursor, error) {
	if sc.N <= 0 {
		return nil, nil, errors.New("cluster: scenario needs N > 0")
	}
	if sc.HorizonSeconds <= 0 {
		return nil, nil, errors.New("cluster: scenario needs a positive horizon")
	}
	if sc.InitialBudgetW <= 0 {
		return nil, nil, errors.New("cluster: scenario needs a positive initial budget")
	}
	if sc.ChurnPerSecond < 0 || sc.SampleEverySeconds < 0 {
		return nil, nil, errors.New("cluster: churn rate and sample spacing must be non-negative")
	}
	horizon := float64(sc.HorizonSeconds)
	for _, f := range sc.SensorFaults {
		if f.Server < 0 || f.Server >= sc.N || f.StartSeconds < 0 || f.EndSeconds <= f.StartSeconds {
			return nil, nil, fmt.Errorf("cluster: invalid fault window %+v", f)
		}
	}
	for _, p := range sc.Partitions {
		if p.StartSeconds < 0 || p.EndSeconds <= p.StartSeconds {
			return nil, nil, fmt.Errorf("cluster: invalid partition window %+v", p)
		}
	}
	if sc.Link != nil {
		if sc.LinkNodes == 0 {
			sc.LinkNodes = 64
		}
		if sc.LinkRounds == 0 {
			sc.LinkRounds = 30
		}
		if sc.LinkNodes < 0 || sc.LinkRounds < 0 {
			return nil, nil, errors.New("cluster: link nodes and rounds must be positive")
		}
	}

	prng := des.NewPartitionedRNG(sc.Seed)
	st := &scnState{
		sc:      sc,
		horizon: horizon,
		demand:  make([]int64, sc.N),
		view:    make([]int64, sc.N),
		faulted: make([]bool, sc.N),
		budgetW: sc.InitialBudgetW,
		linkRNG: prng.Stream(streamLink),
	}
	demandRNG := prng.Stream(streamDemand)
	for i := range st.demand {
		mw := demandMW(demandRNG)
		st.demand[i] = mw
		st.view[i] = mw
		st.sumTrue += mw
	}
	st.sumView = st.sumTrue
	nSamples := 2
	if sc.SampleEverySeconds > 0 {
		nSamples += sc.HorizonSeconds / sc.SampleEverySeconds
	}
	st.samples = make([]ScenarioSample, 0, nSamples)
	st.applies.Grow(16)

	// The initial allocation happens before the clock starts.
	st.doRefresh(0)

	steps := append([]TimedBudget(nil), sc.BudgetSteps...)
	sort.SliceStable(steps, func(a, b int) bool { return steps[a].AtSeconds < steps[b].AtSeconds })
	for len(steps) > 0 && steps[len(steps)-1].AtSeconds > horizon {
		steps = steps[:len(steps)-1]
	}

	var faults []toggle
	for _, f := range sc.SensorFaults {
		faults = append(faults, toggle{t: f.StartSeconds, server: f.Server, on: true})
		if f.EndSeconds <= horizon {
			faults = append(faults, toggle{t: f.EndSeconds, server: f.Server, on: false})
		}
	}
	sort.SliceStable(faults, func(a, b int) bool { return faults[a].t < faults[b].t })

	var parts []toggle
	for _, p := range sc.Partitions {
		parts = append(parts, toggle{t: p.StartSeconds, on: true})
		if p.EndSeconds <= horizon {
			parts = append(parts, toggle{t: p.EndSeconds, on: false})
		}
	}
	sort.SliceStable(parts, func(a, b int) bool { return parts[a].t < parts[b].t })
	dropLate := func(ts []toggle) []toggle {
		keep := ts[:0]
		for _, tg := range ts {
			if tg.t <= horizon {
				keep = append(keep, tg)
			}
		}
		return keep
	}
	faults = dropLate(faults)
	parts = dropLate(parts)

	cursors := []scnCursor{
		&budgetCursor{steps: steps},
		&faultCursor{toggles: faults},
		&partitionCursor{toggles: parts},
		newChurnCursor(prng.Stream(streamChurn), sc.N, sc.ChurnPerSecond, horizon),
		&applyCursor{st: st},
		&sampleCursor{every: float64(sc.SampleEverySeconds), horizon: horizon},
	}
	return st, cursors, nil
}

// cursorSource adapts one cursor to a des.EventSource.
type cursorSource struct {
	c  scnCursor
	st *scnState
}

func (s cursorSource) HasPendingEvents() bool     { return s.c.at() != des.Never }
func (s cursorSource) PeekNextEventTime() float64 { return s.c.at() }
func (s cursorSource) ProcessNextEvent() error    { return s.c.fire(s.st) }

// RunScenarioEvents executes the scenario on the shared-clock event core:
// one EventSource per aspect, merged by a des.Scheduler. Work is
// O(events + samples) — independent of N·seconds.
func RunScenarioEvents(sc Scenario) (ScenarioResult, error) {
	st, cursors, err := buildScenario(sc)
	if err != nil {
		return ScenarioResult{}, err
	}
	sched := des.NewScheduler()
	for _, c := range cursors {
		sched.Add(cursorSource{c: c, st: st})
	}
	if err := sched.Run(); err != nil {
		return ScenarioResult{}, err
	}
	// Work: initial per-server draws plus one visit per processed event.
	return st.result(sched.Processed(), uint64(sc.N)+sched.Processed()), nil
}

// RunScenarioTicks executes the identical scenario with the legacy loop
// structure: every simulated second it drains the same cursors in the same
// order and then pays a full O(N) sweep over the servers. The result is
// bit-identical to RunScenarioEvents; only Steps/WorkUnits — the cost —
// differ. This is the baseline the desscale experiment and
// BenchmarkScenarioSparse measure the event core against.
func RunScenarioTicks(sc Scenario) (ScenarioResult, error) {
	st, cursors, err := buildScenario(sc)
	if err != nil {
		return ScenarioResult{}, err
	}
	var fired uint64
	work := uint64(sc.N)
	for t := 1; t <= sc.HorizonSeconds; t++ {
		tick := float64(t)
		for {
			best := -1
			bestAt := des.Never
			for i, c := range cursors {
				// Strict < matches the scheduler's registration-order tie-break.
				if at := c.at(); at < bestAt {
					best, bestAt = i, at
				}
			}
			if best < 0 || bestAt > tick {
				break
			}
			if err := cursors[best].fire(st); err != nil {
				return ScenarioResult{}, err
			}
			fired++
			work++
		}
		if err := st.resweep(); err != nil {
			return ScenarioResult{}, err
		}
		work += uint64(sc.N)
	}
	return st.result(uint64(sc.HorizonSeconds), work), nil
}
