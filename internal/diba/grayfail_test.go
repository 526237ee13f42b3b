package diba

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"powercap/internal/topology"
)

// TestGraySimDeterministicAndTolerant pins the virtual-slot model's two
// claims in-process: the run is a pure function of its config (two runs
// are identical field for field), and at a 10×-slowed node the tolerant
// gather has at least 5x fewer stalled node-rounds than the fixed-deadline
// baseline while settling every substitution exactly.
func TestGraySimDeterministicAndTolerant(t *testing.T) {
	us := mkCluster(t, 16, 7)
	base := GraySimConfig{
		N: 16, Slow: 5, Sigma: 10, Rounds: 300,
		BudgetW: 170 * 16, Util: us,
	}
	runOnce := func(tolerant bool) GraySimResult {
		cfg := base
		cfg.Tolerant = tolerant
		res, err := RunGraySim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := runOnce(true), runOnce(true); !reflect.DeepEqual(a, b) {
		t.Fatalf("graysim is not deterministic:\n%+v\n%+v", a, b)
	}
	fixed, tol := runOnce(false), runOnce(true)
	if fixed.StalledRounds == 0 {
		t.Fatal("fixed-deadline baseline never stalled at sigma=10; the scenario is vacuous")
	}
	if 5*tol.StalledRounds > fixed.StalledRounds {
		t.Fatalf("tolerant stalled %d node-rounds vs fixed %d, want >= 5x fewer",
			tol.StalledRounds, fixed.StalledRounds)
	}
	for _, r := range []GraySimResult{fixed, tol} {
		if r.Outstanding != 0 {
			t.Fatalf("%d stale records never settled", r.Outstanding)
		}
		if r.MaxAbsGap > 1e-9 {
			t.Fatalf("conservation gap %v exceeds 1e-9", r.MaxAbsGap)
		}
		if r.SlowDeclaredDead {
			t.Fatal("the alive slow node was declared dead")
		}
	}
	if tol.Substituted+tol.SoftExcluded == 0 {
		t.Fatal("tolerant run never mitigated; the slow node was not exercised")
	}
}

// TestGrayDegradedNodeNoFalseDeath runs an 8-agent ring with one degraded
// node — every lane touching it delayed 8 ms — under both the fixed
// deadline policy and the straggler-tolerant one. A slow node that keeps
// beaconing is alive: under either policy no agent may declare any death,
// and every budget view must stay at the full cluster budget.
func TestGrayDegradedNodeNoFalseDeath(t *testing.T) {
	checkGoroutineLeak(t)
	const (
		n, rounds = 8, 60
		slow      = 3
		delay     = 8 * time.Millisecond
	)
	fixed := FaultPolicy{
		GatherTimeout:  40 * time.Millisecond,
		HeartbeatGrace: 250 * time.Millisecond,
		Recover:        true,
	}
	// DeadlineMax below the injected delay is what turns the slowness into
	// mitigations; otherwise the adaptive deadline would simply grow to fit.
	tolerant := fixed
	tolerant.StragglerTolerant = true
	tolerant.DeadlineMax = 4 * time.Millisecond

	us := mkCluster(t, n, 1)
	budget := 170.0 * n
	for _, tc := range []struct {
		name string
		fp   FaultPolicy
	}{{"fixed", fixed}, {"tolerant", tolerant}} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &FaultPlan{Seed: 1, SlowNodes: map[int]SlowSpec{slow: {Delay: delay}}}
			states, err := RunAgentsUnderFaults(topology.Ring(n), us, budget, Config{}, rounds, plan, tc.fp, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range states {
				if len(st.Dead) != 0 {
					t.Fatalf("agent %d declared %v dead; the slow node is alive and beaconing", st.ID, st.Dead)
				}
				if st.Budget != budget {
					t.Fatalf("agent %d budget view %v != %v", st.ID, st.Budget, budget)
				}
			}
		})
	}
}

// runGraySoak deploys a real-agent ring under a combined gray-failure plan
// — one degraded node (flapping off after its On window), a mid-run link
// partition, optionally permanent message loss — with straggler-tolerant
// rounds on, and returns the live agents for post-run assertions.
func runGraySoak(t *testing.T, n, rounds, slow int, drop float64) []*Agent {
	t.Helper()
	g := topology.Ring(n)
	us := mkCluster(t, n, 47)
	budget := 170.0 * float64(n)
	var totalIdle float64
	for _, u := range us {
		totalIdle += u.MinPower()
	}
	// The slowness ends after its On window and the partition heals
	// mid-run, so the tail of the run is healthy: every outstanding stale
	// record meets its true frame and settles before the agents stop.
	plan := &FaultPlan{
		Seed:     91,
		DropProb: drop,
		SlowNodes: map[int]SlowSpec{slow: {
			Delay:  12 * time.Millisecond,
			Jitter: 2 * time.Millisecond,
			Period: 10 * time.Minute,
			On:     400 * time.Millisecond,
		}},
		Partitions: []Partition{{A: 1, B: 2, Start: 80 * time.Millisecond, Dur: 200 * time.Millisecond}},
	}
	fp := FaultPolicy{
		GatherTimeout:     2 * time.Second,
		Recover:           true,
		StragglerTolerant: true,
		DeadlineMin:       time.Millisecond,
		DeadlineMax:       4 * time.Millisecond,
		MaxLag:            6,
	}
	net := NewChanNetwork(n, 4096)
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		a, err := NewAgent(i, g.NeighborsInts(i), us[i], budget, n, totalIdle, Config{},
			NewFaultTransport(net.Endpoint(i), i, plan))
		if err != nil {
			t.Fatal(err)
		}
		a.SetFaultPolicy(fp)
		agents[i] = a
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range agents {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = agents[i].Run(rounds)
		}(i)
	}
	wg.Wait()
	plan.Quiesce()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	return agents
}

// TestGraySoakExactReconciliation is the no-loss soak: slow node plus a
// partition window, straggler-tolerant rounds. The slow node must never be
// declared dead, every budget view must stay at the full cluster budget,
// every stale record must settle once the faults lift, and the cluster-wide
// conservation identity must close exactly.
func TestGraySoakExactReconciliation(t *testing.T) {
	checkGoroutineLeak(t)
	const n, rounds, slow = 10, 400, 5
	agents := runGraySoak(t, n, rounds, slow, 0)

	budget := 170.0 * float64(n)
	var sumE, sumP float64
	mitigated := 0
	for i, a := range agents {
		if d := a.DeadNodes(); len(d) != 0 {
			t.Fatalf("agent %d declared %v dead; every node was alive (slow != dead)", i, d)
		}
		if a.Budget() != budget {
			t.Fatalf("agent %d budget view %v != %v", i, a.Budget(), budget)
		}
		if o := a.OutstandingStale(); o != 0 {
			t.Fatalf("agent %d still holds %d unsettled stale records after the healthy tail", i, o)
		}
		sumE += a.Estimate()
		sumP += a.Power()
		mitigated += a.StaleRounds()
	}
	if mitigated == 0 {
		t.Fatal("no round was ever mitigated; the soak did not exercise the straggler path")
	}
	if gap := math.Abs(sumE - (sumP - budget)); gap > 1e-6 {
		t.Fatalf("conservation violated after settle: Σe − (Σp − B) = %v", gap)
	}
}

// TestGraySoakWithLoss adds permanent message loss on top of the slow node
// and the partition. A dropped true frame can leave its stale record
// unsettled forever, so conservation is only bounded, not exact — but the
// cluster must still terminate (no deadlock), never declare the slow node
// dead, and keep every budget view at the full budget.
func TestGraySoakWithLoss(t *testing.T) {
	checkGoroutineLeak(t)
	const n, rounds, slow = 10, 400, 5
	agents := runGraySoak(t, n, rounds, slow, 0.01)

	budget := 170.0 * float64(n)
	var sumE, sumP float64
	for i, a := range agents {
		if d := a.DeadNodes(); len(d) != 0 {
			t.Fatalf("agent %d declared %v dead under 1%% loss with mitigation on", i, d)
		}
		if a.Budget() != budget {
			t.Fatalf("agent %d budget view %v != %v", i, a.Budget(), budget)
		}
		sumE += a.Estimate()
		sumP += a.Power()
	}
	gap := math.Abs(sumE - (sumP - budget))
	if math.IsNaN(gap) || gap > 0.05*budget {
		t.Fatalf("conservation gap %v not bounded under loss (budget %v)", gap, budget)
	}
}
