package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powercap/internal/ctlplane"
	"powercap/internal/diba"
	"powercap/internal/metrics"
	"powercap/internal/stats"
	"powercap/internal/workload"
)

// clusterSpec describes the agent cluster a workload stands up.
type clusterSpec struct {
	name string
	n    int
	// tcp runs every link over TCPTransport on loopback; otherwise the
	// nodes share one ChanNetwork.
	tcp bool
	// listen starts each node's ctlplane HTTP listener, and budget writes
	// go by POST /v1/budget; otherwise they go straight to Server.Enqueue.
	listen bool
	// pace is slept after every round; zero runs unpaced.
	pace time.Duration
	// hier, when set, builds HierAgents on this topology instead of a flat
	// ring of Agents.
	hier *diba.HierTopo
	// budgetW is the budget the cluster starts under.
	budgetW float64
	// roundTimes has every driver keep the time from each round's end to
	// the next one's while the window is open, for the workload whose
	// request is the round itself.
	roundTimes bool
}

// node is one agent with everything dibad would have built around it, and
// the harness's per-node records.
type node struct {
	id    int
	agent *diba.Agent
	hier  *diba.HierAgent
	tcp   *diba.TCPTransport
	tt    *tracedTransport // nil in an untraced run
	pub   *diba.StatePub
	api   *ctlplane.Server
	ring  int // index into cluster.rings

	// rounds is the node's completed-round count, for the coordinator.
	rounds atomic.Int64
	// appliedAt is when Drain last applied a command (traced runs).
	appliedAt atomic.Int64
	err       error // set by the driver before it exits; read after wg.Wait

	logs [2]stepLog
	// roundNs is preallocated when the spec asks for round times.
	roundNs []int32

	// Traced-run accumulators, written only by the driver goroutine while
	// cluster.tracing is set and read after it has exited.
	spans                   *spanBuf
	stepHist, selfHist      stats.LatencyHist
	stepNs, drainNs         int64
	sampledNs               int64 // the part of stepNs spent in sampled rounds
	sampledRounds           int64 // rounds whose transport calls were timed
	drainIdleNs, drainIdles int64
	drainApplyNs, drainApps int64
	tracedRounds            int64
	frozenRounds            int64
	leaseChanges            int64
	lastLeaseChangeAt       int64
}

// cluster is a running set of nodes, each stepped by its own goroutine in
// the loop dibad runs: StepOnce (or HierAgent.Step), then Drain.
type cluster struct {
	spec  clusterSpec
	us    []workload.Utility
	nodes []*node
	// rings lists the node sets that run in BSP lockstep and therefore
	// have to stop at a common round: the whole cluster when flat, each
	// group when hierarchical.
	rings [][]int
	stops []atomic.Int64

	stepSeq atomic.Int64
	// tracing switches the traced run's timers on and off. They run in
	// alternate slices of the measured window, so that the round rate with
	// them over the rate without is the tracing overhead, measured on one
	// cluster within one run.
	tracing atomic.Bool
	// spanStep is the id of the budget step whose spans are being kept,
	// zero when none is.
	spanStep atomic.Int64
	inWindow atomic.Bool                   // the measured window is open
	ab       [2]struct{ ns, rounds int64 } // [0] timers off, [1] timers on
	abSince  struct{ ns, rounds int64 }
	wg       sync.WaitGroup
	aborted  atomic.Bool
	closeTrs sync.Once
	trs      []diba.Transport

	trc       *tracer // nil in an untraced run
	opSpans   *spanBuf
	connectMs float64
	listeners []string // every address the cluster listened on
}

const noStop = math.MaxInt64

// sampleEvery is how many rounds apart a traced node times its transport
// calls. It is prime because rounds are not alike: over TCP a ring settles
// into a two-round rhythm in which every other node finds its even rounds'
// messages already buffered, and a sample of even rounds alone reads 30
// times too fast on those nodes and twice too slow on the others.
const sampleEvery = 17

// startCluster builds the cluster and starts its drivers. On error nothing
// is left running.
func startCluster(spec clusterSpec, us []workload.Utility, trc *tracer) (c *cluster, err error) {
	n := spec.n
	c = &cluster{spec: spec, us: us, nodes: make([]*node, n), trc: trc}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if trc != nil {
		c.opSpans = trc.newBuf(fullSpanSteps * (2*n + 1))
	}
	if spec.hier != nil {
		c.rings = spec.hier.Groups
	} else {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		c.rings = [][]int{all}
	}
	c.stops = make([]atomic.Int64, len(c.rings))
	for i := range c.stops {
		c.stops[i].Store(noStop)
	}
	ringOf := make([]int, n)
	for r, members := range c.rings {
		for _, id := range members {
			ringOf[id] = r
		}
	}

	// Transports. Every node learns its links the way dibad does: ring
	// neighbours when flat; leaf neighbours plus every member of the
	// adjacent groups when hierarchical.
	links := make([][]int, n)
	neighbors := make([][]int, n)
	for i := 0; i < n; i++ {
		if spec.hier != nil {
			neighbors[i] = spec.hier.LeafNeighbors(i)
			links[i] = append(append([]int{}, neighbors[i]...), spec.hier.UpperPeers(i)...)
		} else {
			neighbors[i] = []int{(i + n - 1) % n, (i + 1) % n}
			links[i] = neighbors[i]
		}
	}
	trs := make([]diba.Transport, n)
	c.trs = trs
	if spec.tcp {
		addrs := make(map[int]string, n)
		for i := 0; i < n; i++ {
			t, err := diba.NewTCPTransport(i, "127.0.0.1:0")
			if err != nil {
				return c, err
			}
			c.nodes[i] = &node{id: i, tcp: t}
			trs[i] = t
			addrs[i] = t.Addr()
			c.listeners = append(c.listeners, t.Addr())
		}
		start := time.Now()
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = c.nodes[i].tcp.ConnectNeighbors(links[i], addrs, 10*time.Second)
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return c, err
		}
		c.connectMs = float64(time.Since(start)) / 1e6
	} else {
		fabric := diba.NewChanNetwork(n, 1024)
		for i := 0; i < n; i++ {
			c.nodes[i] = &node{id: i}
			trs[i] = fabric.Endpoint(i)
		}
	}

	logCap := (1 << 18) / n
	for i, nd := range c.nodes {
		nd.ring = ringOf[i]
		tr := trs[i]
		if trc != nil {
			tr, nd.tt = wrapTransport(tr, i)
			nd.spans = trc.nodeBuf(n)
		}
		if spec.hier != nil {
			nd.hier, err = diba.NewHierAgent(*spec.hier, diba.HierPolicy{}, i, us[i], diba.Config{}, tr)
			if err != nil {
				return c, err
			}
			nd.agent = nd.hier.Agent()
		} else {
			idle := workload.DefaultServer.IdleWatts * float64(n)
			nd.agent, err = diba.NewAgent(i, neighbors[i], us[i], spec.budgetW, n, idle, diba.Config{}, tr)
			if err != nil {
				return c, err
			}
		}
		nd.pub = new(diba.StatePub)
		if nd.tcp != nil {
			nd.pub.SetDecorator(wireDecorator(nd.tcp))
		}
		if nd.hier != nil {
			nd.hier.PublishState(nd.pub)
		} else {
			nd.agent.PublishState(nd.pub)
		}
		nd.api = ctlplane.New(ctlplane.Config{Node: i, Workload: spec.name, Pub: nd.pub, BudgetW: spec.budgetW, Hier: spec.hier != nil})
		if spec.listen {
			if err := nd.api.Start("127.0.0.1:0"); err != nil {
				return c, err
			}
			c.listeners = append(c.listeners, nd.api.Addr())
		}
		for k := range nd.logs {
			nd.logs[k].buf = make([]rec, logCap)
		}
		if spec.roundTimes {
			nd.roundNs = make([]int32, 0, 1<<18)
		}
	}
	for _, nd := range c.nodes {
		c.wg.Add(1)
		go c.drive(nd)
	}
	return c, nil
}

// wireDecorator attaches the transport's counters to every snapshot, as
// dibad's publisher decorator does.
func wireDecorator(tcp *diba.TCPTransport) func(*diba.StateSnapshot) {
	return func(s *diba.StateSnapshot) {
		s.Wire = tcp.WireTotals()
		st := tcp.WireStats()
		peers := make([]int, 0, len(st))
		for p := range st {
			peers = append(peers, p)
		}
		sort.Ints(peers)
		pws := make([]diba.PeerWire, 0, len(peers))
		for _, p := range peers {
			pws = append(pws, diba.PeerWire{Peer: p, Stats: st[p]})
		}
		s.WirePeers = pws
	}
}

// drive is one node's round loop — dibad's: step, then drain the control
// plane's queue at the round boundary — plus the harness's records.
func (c *cluster) drive(nd *node) {
	defer c.wg.Done()
	n := c.spec.n
	a := nd.agent
	apply := func(cmd ctlplane.Command) error {
		if cmd.Kind != ctlplane.CmdSetBudget {
			return fmt.Errorf("unexpected command %v", cmd.Kind)
		}
		a.SetBudgetDelta(cmd.BudgetW-a.Budget(), n)
		return nil
	}
	step := a.StepOnce
	if nd.hier != nil {
		step = nd.hier.Step
	}
	stop := &c.stops[nd.ring]
	seq := int64(-1)
	var lg *stepLog
	last := rec{T: nanotime(), CapW: a.AppliedCap(), Budget: a.Budget()}
	var lease int64
	if nd.hier != nil {
		lease = nd.hier.Lease()
	}
	for int64(a.Round()) < stop.Load() {
		// With the timers on, every round's StepOnce and Drain are timed;
		// the transport calls inside it only on every sampleEvery-th round
		// and in the steps that keep their spans. On the channel workloads
		// a round costs a couple of microseconds of CPU, and a dozen more
		// clock reads in each would be a sixth of that.
		on := false
		var s0, r0 int64
		if tt := nd.tt; tt != nil {
			on = c.tracing.Load()
			tt.on, tt.round, tt.spans = on && (a.Round()+nd.id)%sampleEvery == 0, a.Round(), nil
			if id := c.spanStep.Load(); on && id != 0 {
				tt.on, tt.step, tt.spans = true, int(id), nd.spans
			}
			s0, r0 = tt.sendNs, tt.recvNs
		}
		var t0 int64
		if on {
			t0 = nanotime()
		}
		err := step()
		t1 := nanotime()
		if err != nil {
			nd.err = err
			c.abort()
			return
		}
		r := rec{T: t1, Round: int32(a.Round()), CapW: a.AppliedCap(), Budget: a.Budget()}
		if tt := nd.tt; tt != nil {
			if on {
				nd.stepNs += t1 - t0
			}
			if tt.on {
				nd.sampledNs += t1 - t0
			}
			r.SendNs, r.RecvNs, r.StepNs, r.SampledNs = tt.sendNs, tt.recvNs, nd.stepNs, nd.sampledNs
		}
		if s := c.stepSeq.Load(); s != seq {
			seq = s
			lg = &nd.logs[s&1]
			lg.reset(last)
		}
		// A log that fills up is noticed by the coordinator, which cannot
		// close the step from it.
		lg.add(r)
		if nd.roundNs != nil && len(nd.roundNs) < cap(nd.roundNs) && c.inWindow.Load() {
			nd.roundNs = append(nd.roundNs, int32(r.T-last.T))
		}
		last = r
		applied, _ := nd.api.Drain(apply)
		nd.rounds.Store(int64(r.Round))
		if on {
			t2 := nanotime()
			tt := nd.tt
			nd.tracedRounds++
			nd.drainNs += t2 - t1
			nd.stepHist.RecordNs(t1 - t0)
			if tt.on {
				nd.sampledRounds++
				nd.selfHist.RecordNs((t1 - t0) - (tt.sendNs - s0) - (tt.recvNs - r0))
			}
			tt.spans.add(span{Kind: spanRound, Node: nd.id, Step: tt.step, Round: int(r.Round), Start: t0, End: t1})
			if applied > 0 {
				nd.appliedAt.Store(t2)
				nd.drainApplyNs += t2 - t1
				nd.drainApps++
			} else {
				nd.drainIdleNs += t2 - t1
				nd.drainIdles++
			}
			if nd.hier != nil {
				if nd.hier.Frozen() {
					nd.frozenRounds++
				}
				if l := nd.hier.Lease(); l != lease {
					lease = l
					nd.leaseChanges++
					nd.lastLeaseChangeAt = t2
				}
			}
		}
		if c.spec.pace > 0 {
			time.Sleep(c.spec.pace)
		}
	}
}

// abort tears the transports down so that every driver blocked on a dead
// neighbour fails out instead of hanging; the run is already lost.
func (c *cluster) abort() {
	if c.aborted.CompareAndSwap(false, true) {
		for i := range c.stops {
			c.stops[i].Store(0)
		}
		go c.closeTransports()
	}
}

func (c *cluster) closeTransports() {
	c.closeTrs.Do(func() {
		for _, tr := range c.trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
}

// view is the cluster as an outside observer sees it at one instant: the
// latest published snapshot of every node.
type view struct {
	sumCap, sumU       float64
	minRound, maxRound int
	budgets            []float64
	ready              bool // every node has published
}

func (c *cluster) observe(v *view) {
	if v.budgets == nil {
		v.budgets = make([]float64, len(c.nodes))
	}
	v.sumCap, v.sumU, v.ready = 0, 0, true
	v.minRound, v.maxRound = math.MaxInt, 0
	for i, nd := range c.nodes {
		s := nd.pub.Load()
		if s == nil {
			v.ready = false
			return
		}
		v.sumCap += s.CapW
		v.sumU += c.us[i].Value(s.CapW)
		v.budgets[i] = s.BudgetW
		if s.Round < v.minRound {
			v.minRound = s.Round
		}
		if s.Round > v.maxRound {
			v.maxRound = s.Round
		}
	}
}

func (v *view) allBudgets(target float64) bool {
	for _, b := range v.budgets {
		if b != target {
			return false
		}
	}
	return true
}

// waitSteady polls until the cluster is under budgetW at no less than
// wantU utility — the end of set-up.
func (c *cluster) waitSteady(budgetW, wantU float64, timeout time.Duration) error {
	var v view
	deadline := time.Now().Add(timeout)
	for {
		c.observe(&v)
		if v.ready && v.sumCap <= budgetW && v.sumU >= wantU {
			return nil
		}
		if c.aborted.Load() {
			return errors.New("a node failed during set-up")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no steady state within %v: ΣCapW %.2f of %.0f, Σu %.4f of %.4f", timeout, v.sumCap, budgetW, v.sumU, wantU)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// window is what the process and the cluster did between begin and end.
type window struct {
	startNs, endNs int64
	rounds         []int64 // per node
	mem            runtime.MemStats
	wire           diba.WireStats
	pubSeq         uint64
	nodeRounds     int64
	minRounds      int64
}

func (w *window) seconds() float64 { return float64(w.endNs-w.startNs) / 1e9 }

// rate is the window's rounds per second: the slowest node's.
func (w *window) rate() float64 { return float64(w.minRounds) / w.seconds() }

func (c *cluster) sample(w *window) {
	w.rounds = make([]int64, len(c.nodes))
	w.wire, w.pubSeq = diba.WireStats{}, 0
	for i, nd := range c.nodes {
		w.rounds[i] = nd.rounds.Load()
		w.pubSeq += nd.pub.Seq()
		if nd.tcp != nil {
			t := nd.tcp.WireTotals()
			w.wire.MsgsSent += t.MsgsSent
			w.wire.BytesSent += t.BytesSent
			w.wire.Flushes += t.Flushes
		}
	}
	runtime.ReadMemStats(&w.mem)
}

func (c *cluster) totalRounds() int64 {
	var sum int64
	for _, nd := range c.nodes {
		sum += nd.rounds.Load()
	}
	return sum
}

// setTracing ends the current slice of the traced window, crediting its
// time and rounds to the mode it ran in, and starts one with the timers on
// or off. It does nothing in an untraced run.
func (c *cluster) setTracing(on bool) {
	if c.trc == nil {
		return
	}
	now, rounds := nanotime(), c.totalRounds()
	mode := 0
	if c.tracing.Load() {
		mode = 1
	}
	c.ab[mode].ns += now - c.abSince.ns
	c.ab[mode].rounds += rounds - c.abSince.rounds
	c.abSince.ns, c.abSince.rounds = now, rounds
	c.tracing.Store(on)
}

// beginWindow opens the measured window.
func (c *cluster) beginWindow() *window {
	w := new(window)
	c.sample(w)
	noteGoroutines()
	w.startNs = nanotime()
	c.abSince.ns, c.abSince.rounds = w.startNs, c.totalRounds()
	c.tracing.Store(c.trc != nil)
	c.inWindow.Store(true)
	return w
}

// endWindow closes it and turns w into the difference.
func (c *cluster) endWindow(w *window) {
	c.setTracing(false)
	c.inWindow.Store(false)
	w.endNs = nanotime()
	noteGoroutines()
	var e window
	c.sample(&e)
	w.minRounds = math.MaxInt64
	for i := range w.rounds {
		d := e.rounds[i] - w.rounds[i]
		w.rounds[i] = d
		w.nodeRounds += d
		if d < w.minRounds {
			w.minRounds = d
		}
	}
	w.mem.Mallocs = e.mem.Mallocs - w.mem.Mallocs
	w.mem.TotalAlloc = e.mem.TotalAlloc - w.mem.TotalAlloc
	w.mem.NumGC = e.mem.NumGC - w.mem.NumGC
	w.mem.PauseTotalNs = e.mem.PauseTotalNs - w.mem.PauseTotalNs
	w.wire.MsgsSent = e.wire.MsgsSent - w.wire.MsgsSent
	w.wire.BytesSent = e.wire.BytesSent - w.wire.BytesSent
	w.wire.Flushes = e.wire.Flushes - w.wire.Flushes
	w.pubSeq = e.pubSeq - w.pubSeq
}

// stop has every ring run to a common round a little ahead of where it is
// and waits for the drivers: BSP neighbours cannot stop at different
// rounds without one of them waiting forever for the other's message.
func (c *cluster) stop(ratePerS float64) {
	margin := int64(64 + ratePerS*0.05)
	for r, members := range c.rings {
		var max int64
		for _, id := range members {
			if v := c.nodes[id].rounds.Load(); v > max {
				max = v
			}
		}
		c.stops[r].Store(max + int64(len(members)) + margin)
	}
	c.wg.Wait()
}

// close shuts the servers and the transports. The drivers must have
// stopped.
func (c *cluster) close() {
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if nd.api != nil {
			nd.api.Shutdown(2 * time.Second)
		}
	}
	c.closeTransports()
}

// checkFinal runs the end-of-epoch output checks on a stopped cluster:
// the drivers of a ring all stopped at the same round, every budget view
// equals want, and the estimates conserve the budget: |Σe − (Σp − B)| ≤
// 1e-6 over each ring. A hierarchical group is held to its aggregate's
// lease, since the aggregate alone absorbs a lease change into its
// estimate; its members' views are not compared, because a flood sent in
// the aggregate's last round is never read by members that have stopped.
func (c *cluster) checkFinal(r *report, wantBudget float64) {
	for _, nd := range c.nodes {
		r.op(nd.err == nil, "%s: node %d: %v", c.spec.name, nd.id, nd.err)
	}
	for g, members := range c.rings {
		var sumE, sumP float64
		round := c.nodes[members[0]].agent.Round()
		same := true
		budget := c.nodes[members[0]].agent.Budget()
		for _, id := range members {
			a := c.nodes[id].agent
			sumE += a.Estimate()
			sumP += a.Power()
			same = same && a.Round() == round
			if c.spec.hier == nil {
				r.op(a.Budget() == wantBudget, "%s: node %d ended with budget view %v, last posted %v", c.spec.name, id, a.Budget(), wantBudget)
			}
		}
		if !r.op(same, "%s: ring %d did not stop at a common round", c.spec.name, g) {
			continue
		}
		gap := sumE - (sumP - budget)
		r.op(math.Abs(gap) <= 1e-6, "%s: ring %d conservation gap Σe-(Σp-B) = %g", c.spec.name, g, gap)
	}
}

// utilOver returns the stopped cluster's Σuᵢ(CapWᵢ) as a share of ref.
func (c *cluster) utilOver(ref float64) float64 {
	u, _ := metrics.TotalUtility(c.us, c.caps()) // one utility per node by construction
	return u / ref
}

// caps returns every node's applied cap; the drivers must have stopped.
func (c *cluster) caps() []float64 {
	out := make([]float64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.agent.AppliedCap()
	}
	return out
}

// checkTornDown verifies that a closed cluster left nothing behind: no
// listener still accepts and the goroutine count is back to what it was
// before the cluster was built.
func checkTornDown(r *report, name string, listeners []string, goroutinesBefore int) {
	for _, addr := range listeners {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
		}
		r.op(err != nil, "%s: listener %s still accepts after teardown", name, addr)
	}
	var now int
	for i := 0; i < 200; i++ {
		if now = runtime.NumGoroutine(); now <= goroutinesBefore {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.op(now <= goroutinesBefore, "%s: %d goroutines after teardown, %d before set-up", name, now, goroutinesBefore)
}
