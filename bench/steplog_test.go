package main

import (
	"testing"

	"powercap/internal/workload"
)

// lin is a utility worth one unit per watt.
func lin(t *testing.T) workload.Utility {
	t.Helper()
	q, err := workload.NewQuadratic(0, 1, 0, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestMergeStepFindsFirstCrossings(t *testing.T) {
	us := []workload.Utility{lin(t), lin(t), lin(t)}
	const t0, target = 1000, 270.0
	// Three nodes at 100 W each under a 300 W budget; a cut to 270 W.
	// Node 2 adopts last, at T=1400: that is the compliant instant. Utility
	// (= ΣCapW here) then climbs back: 255 → 262 at 1500 → 268 at 1600.
	logs := [][]rec{
		{{T: 900, Round: 10, CapW: 100, Budget: 300}, {T: 1100, Round: 11, CapW: 85, Budget: 270}, {T: 1500, Round: 13, CapW: 92, Budget: 270}},
		{{T: 950, Round: 10, CapW: 100, Budget: 300}, {T: 1200, Round: 11, CapW: 85, Budget: 270}, {T: 1600, Round: 14, CapW: 91, Budget: 270}},
		{{T: 990, Round: 10, CapW: 100, Budget: 300}, {T: 1300, Round: 11, CapW: 100, Budget: 300}, {T: 1400, Round: 12, CapW: 85, Budget: 270}},
	}
	got := mergeStep(logs, t0, target, us, 268)
	if got.CompliantNs != 400 {
		t.Errorf("compliant at %d ns after the write, want 400", got.CompliantNs)
	}
	if got.T99Ns != 600 || got.SumCapAtT99 != 268 {
		t.Errorf("t99 at %d ns with ΣCapW %v, want 600 and 268", got.T99Ns, got.SumCapAtT99)
	}
	if want := (3.0 + 4 + 2) / 3; got.RoundsTo99 != want {
		t.Errorf("rounds to 99%% = %v, want %v", got.RoundsTo99, want)
	}

	// A utility never reached leaves T99 unset but compliance found.
	got = mergeStep(logs, t0, target, us, 269)
	if got.CompliantNs != 400 || got.T99Ns != -1 {
		t.Errorf("unreachable target: compliant %d, t99 %d; want 400, -1", got.CompliantNs, got.T99Ns)
	}
}

func TestMergeStepNeedsEveryNodeAdoptedAndUnderBudget(t *testing.T) {
	us := []workload.Utility{lin(t), lin(t)}
	// Both nodes adopt at once but node 1 sheds only later: adopted is not
	// yet compliant. A record from before the write (T < t0) is state, not
	// an event that can close the step.
	logs := [][]rec{
		{{T: 10, CapW: 100, Budget: 200}, {T: 90, CapW: 100, Budget: 200}, {T: 150, Round: 1, CapW: 80, Budget: 170}},
		{{T: 20, CapW: 100, Budget: 200}, {T: 160, Round: 1, CapW: 100, Budget: 170}, {T: 300, Round: 2, CapW: 85, Budget: 170}},
	}
	got := mergeStep(logs, 100, 170, us, 160)
	if got.CompliantNs != 200 || got.T99Ns != 200 {
		t.Errorf("compliant %d, t99 %d; want 200, 200", got.CompliantNs, got.T99Ns)
	}
	// A node that never adopts keeps the step open for good.
	logs[1] = logs[1][:1]
	if got := mergeStep(logs, 100, 170, us, 0); got.CompliantNs != -1 || got.T99Ns != -1 {
		t.Errorf("one node never adopted: %+v", got)
	}
	// An empty log (a node that has not switched to this step yet).
	logs[1] = nil
	if got := mergeStep(logs, 100, 170, us, 0); got.T99Ns != -1 {
		t.Errorf("missing log: %+v", got)
	}
}

func TestMergeStepTiesReplayInNodeOrder(t *testing.T) {
	us := []workload.Utility{lin(t), lin(t)}
	logs := [][]rec{
		{{T: 0, CapW: 50, Budget: 100}, {T: 10, Round: 1, CapW: 40, Budget: 90}},
		{{T: 0, CapW: 50, Budget: 100}, {T: 10, Round: 1, CapW: 45, Budget: 90}},
	}
	got := mergeStep(logs, 5, 90, us, 85)
	if got.CompliantNs != 5 || got.T99Ns != 5 || got.SumCapAtT99 != 85 {
		t.Errorf("%+v", got)
	}
}

func TestStepLogHandsOverOnlyWholeEntries(t *testing.T) {
	l := stepLog{buf: make([]rec, 3)}
	l.reset(rec{T: 1})
	if !l.add(rec{T: 2}) || !l.add(rec{T: 3}) {
		t.Fatal("log refused entries it has room for")
	}
	if l.add(rec{T: 4}) {
		t.Error("a full log took another entry")
	}
	if e := l.entries(); len(e) != 3 || e[0].T != 1 || e[2].T != 3 {
		t.Errorf("entries = %+v", e)
	}
	l.reset(rec{T: 9})
	if e := l.entries(); len(e) != 1 || e[0].T != 9 {
		t.Errorf("after reset: %+v", e)
	}
}
