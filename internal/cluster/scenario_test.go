package cluster

import (
	"testing"
	"testing/quick"

	"powercap/internal/des"
	"powercap/internal/netsim"
)

// The two scenario runners must agree bit for bit: same samples, same
// counters, same final power. Only Steps and WorkUnits — the cost of the
// loop structure — may differ, and for sparse scenarios they must differ
// a lot in the event runner's favor.

func fullScenario(n int, seed int64) Scenario {
	return Scenario{
		N:              n,
		Seed:           seed,
		HorizonSeconds: 120,
		InitialBudgetW: 140 * float64(n) / 1000 * 1000, // ~140 W/server
		BudgetSteps: []TimedBudget{
			{AtSeconds: 30, BudgetW: 110 * float64(n)},
			{AtSeconds: 80, BudgetW: 150 * float64(n)},
		},
		ChurnPerSecond: 0.05,
		SensorFaults: []FaultWindow{
			{Server: 0, StartSeconds: 10, EndSeconds: 50},
			{Server: n / 2, StartSeconds: 40, EndSeconds: 90},
		},
		Partitions: []PartitionWindow{
			{StartSeconds: 55, EndSeconds: 70},
		},
		SampleEverySeconds: 10,
	}
}

func scenarioResultsIdentical(t *testing.T, ev, tick ScenarioResult) {
	t.Helper()
	if len(ev.Samples) != len(tick.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(ev.Samples), len(tick.Samples))
	}
	for i := range ev.Samples {
		if ev.Samples[i] != tick.Samples[i] {
			t.Fatalf("sample %d differs:\nevent: %+v\ntick:  %+v", i, ev.Samples[i], tick.Samples[i])
		}
	}
	if ev.ChurnEvents != tick.ChurnEvents || ev.Refreshes != tick.Refreshes ||
		ev.Violations != tick.Violations || ev.FinalPowerW != tick.FinalPowerW ||
		ev.AllocLatencySeconds != tick.AllocLatencySeconds {
		t.Fatalf("counters differ:\nevent: %+v\ntick:  %+v", ev, tick)
	}
}

func TestScenarioEventTickIdentical(t *testing.T) {
	sc := fullScenario(64, 42)
	ev, err := RunScenarioEvents(sc)
	if err != nil {
		t.Fatal(err)
	}
	tick, err := RunScenarioTicks(sc)
	if err != nil {
		t.Fatal(err)
	}
	scenarioResultsIdentical(t, ev, tick)
	if ev.ChurnEvents == 0 {
		t.Fatal("scenario produced no churn — the equivalence check is vacuous")
	}
	if ev.Samples[0].AtSeconds != 0 || ev.Samples[len(ev.Samples)-1].AtSeconds != 120 {
		t.Fatalf("samples must span [0, horizon], got %+v", ev.Samples)
	}
}

// TestScenarioEventTickIdenticalWithLink: refresh latency draws come from
// their own RNG stream at the same logical points, so the delayed scale
// applications land identically in both runners.
func TestScenarioEventTickIdenticalWithLink(t *testing.T) {
	sc := fullScenario(48, 7)
	sc.Link = &netsim.Measured
	sc.LinkNodes = 16
	sc.LinkRounds = 10
	ev, err := RunScenarioEvents(sc)
	if err != nil {
		t.Fatal(err)
	}
	tick, err := RunScenarioTicks(sc)
	if err != nil {
		t.Fatal(err)
	}
	scenarioResultsIdentical(t, ev, tick)
	if ev.AllocLatencySeconds <= 0 {
		t.Fatal("link mode recorded no allocator latency")
	}
}

// TestScenarioPartitionFreezesScale: while partitioned the allocator must
// not react — a budget cut during the partition shows up in the samples
// only after the heal.
func TestScenarioPartitionFreezesScale(t *testing.T) {
	sc := Scenario{
		N:                  32,
		Seed:               3,
		HorizonSeconds:     60,
		InitialBudgetW:     200 * 32, // ample: scale 1
		BudgetSteps:        []TimedBudget{{AtSeconds: 25, BudgetW: 50 * 32}},
		Partitions:         []PartitionWindow{{StartSeconds: 20, EndSeconds: 40}},
		SampleEverySeconds: 10,
	}
	res, err := RunScenarioEvents(sc)
	if err != nil {
		t.Fatal(err)
	}
	byTime := map[float64]ScenarioSample{}
	for _, s := range res.Samples {
		byTime[s.AtSeconds] = s
	}
	if byTime[30].Scale != 1 {
		t.Fatalf("scale reacted to a budget cut during the partition: %+v", byTime[30])
	}
	if !byTime[30].Partitioned {
		t.Fatalf("sample at t=30 should be inside the partition: %+v", byTime[30])
	}
	if byTime[50].Scale >= 1 {
		t.Fatalf("scale never caught up after the heal: %+v", byTime[50])
	}
	if res.Violations == 0 {
		t.Fatal("a frozen scale over a halved budget should violate at t=30")
	}
}

// TestScenarioFaultStalesTheView: a faulted sensor freezes the allocator's
// view, so churn under the fault makes view and truth disagree and the
// applied power drift off budget.
func TestScenarioFaultStalesTheView(t *testing.T) {
	sc := Scenario{
		N:                  16,
		Seed:               11,
		HorizonSeconds:     100,
		InitialBudgetW:     100 * 16, // tight: scale < 1, so view errors matter
		ChurnPerSecond:     0.2,
		SensorFaults:       []FaultWindow{{Server: 4, StartSeconds: 5, EndSeconds: 95}},
		SampleEverySeconds: 5,
	}
	res, err := RunScenarioEvents(sc)
	if err != nil {
		t.Fatal(err)
	}
	sawFault := false
	for _, s := range res.Samples {
		if s.Faulted > 0 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("no sample observed the fault window")
	}
	tick, err := RunScenarioTicks(sc)
	if err != nil {
		t.Fatal(err)
	}
	scenarioResultsIdentical(t, res, tick)
}

// TestScenarioEquivalenceProperty: quick.Check the bit-identity across
// random seeds, sizes, churn rates, and sampling densities.
func TestScenarioEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in short mode")
	}
	f := func(seed int64, nRaw, churnRaw, everyRaw uint8) bool {
		n := 8 + int(nRaw%56)
		sc := Scenario{
			N:                  n,
			Seed:               seed,
			HorizonSeconds:     40 + int(nRaw%3)*30,
			InitialBudgetW:     120 * float64(n),
			BudgetSteps:        []TimedBudget{{AtSeconds: 11, BudgetW: 100 * float64(n)}},
			ChurnPerSecond:     float64(churnRaw%30) / 100,
			SensorFaults:       []FaultWindow{{Server: n - 1, StartSeconds: 7, EndSeconds: 29}},
			Partitions:         []PartitionWindow{{StartSeconds: 15, EndSeconds: 24}},
			SampleEverySeconds: int(everyRaw%4) * 7, // 0 (sparse) .. 21
		}
		ev, err := RunScenarioEvents(sc)
		if err != nil {
			return false
		}
		tick, err := RunScenarioTicks(sc)
		if err != nil {
			return false
		}
		if len(ev.Samples) != len(tick.Samples) {
			return false
		}
		for i := range ev.Samples {
			if ev.Samples[i] != tick.Samples[i] {
				return false
			}
		}
		return ev.ChurnEvents == tick.ChurnEvents && ev.Refreshes == tick.Refreshes &&
			ev.FinalPowerW == tick.FinalPowerW && ev.Violations == tick.Violations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioSparseWorkAdvantage: in the sparse regime the tick runner
// pays O(N) every second while the event runner pays only per event — the
// recorded WorkUnits must show at least an order of magnitude between them
// (wall-clock is benchmarked by BenchmarkScenarioSparse, not asserted here).
func TestScenarioSparseWorkAdvantage(t *testing.T) {
	sc := Scenario{
		N:                  10_000,
		Seed:               1,
		HorizonSeconds:     600,
		InitialBudgetW:     120 * 10_000,
		ChurnPerSecond:     0.01 / 60, // 1% of servers churn per minute
		SampleEverySeconds: 60,
	}
	ev, err := RunScenarioEvents(sc)
	if err != nil {
		t.Fatal(err)
	}
	tick, err := RunScenarioTicks(sc)
	if err != nil {
		t.Fatal(err)
	}
	scenarioResultsIdentical(t, ev, tick)
	if ev.WorkUnits*10 > tick.WorkUnits {
		t.Fatalf("sparse scenario shows no O(events) advantage: event %d vs tick %d work units",
			ev.WorkUnits, tick.WorkUnits)
	}
}

// TestScenarioEventHotPathZeroAlloc: steady-state scheduler stepping over
// a churn-heavy scenario must not allocate.
func TestScenarioEventHotPathZeroAlloc(t *testing.T) {
	st, cursors, err := buildScenario(Scenario{
		N:                  256,
		Seed:               5,
		HorizonSeconds:     1 << 20,
		InitialBudgetW:     110 * 256,
		ChurnPerSecond:     1,
		SampleEverySeconds: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := des.NewScheduler()
	for _, c := range cursors {
		sched.Add(cursorSource{c: c, st: st})
	}
	for i := 0; i < 4096; i++ {
		if ok, err := sched.Step(); err != nil || !ok {
			t.Fatalf("warmup step %d: ok=%v err=%v", i, ok, err)
		}
	}
	allocs := testing.AllocsPerRun(4096, func() {
		if ok, err := sched.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scenario event hot path allocated %v allocs/op, want 0", allocs)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{N: 0, HorizonSeconds: 10, InitialBudgetW: 100},
		{N: 4, HorizonSeconds: 0, InitialBudgetW: 100},
		{N: 4, HorizonSeconds: 10, InitialBudgetW: 0},
		{N: 4, HorizonSeconds: 10, InitialBudgetW: 100, ChurnPerSecond: -1},
		{N: 4, HorizonSeconds: 10, InitialBudgetW: 100, SensorFaults: []FaultWindow{{Server: 9, StartSeconds: 1, EndSeconds: 2}}},
		{N: 4, HorizonSeconds: 10, InitialBudgetW: 100, SensorFaults: []FaultWindow{{Server: 1, StartSeconds: 3, EndSeconds: 3}}},
		{N: 4, HorizonSeconds: 10, InitialBudgetW: 100, Partitions: []PartitionWindow{{StartSeconds: 5, EndSeconds: 4}}},
	}
	for i, sc := range bad {
		if _, err := RunScenarioEvents(sc); err == nil {
			t.Fatalf("bad scenario %d accepted by event runner", i)
		}
		if _, err := RunScenarioTicks(sc); err == nil {
			t.Fatalf("bad scenario %d accepted by tick runner", i)
		}
	}
}

// BenchmarkScenarioSparse times the sparse 100k-node, 1-hour scenario (1%
// of servers churn per minute, samples every 60 s) through both runners.
// ticks runs first so events can report its wall-clock speedup over the
// tick loop; the desscale table pins the structural work ratio.
func BenchmarkScenarioSparse(b *testing.B) {
	sc := Scenario{
		N:                  100_000,
		Seed:               1,
		HorizonSeconds:     3600,
		InitialBudgetW:     130 * 100_000,
		ChurnPerSecond:     0.01 / 60,
		SampleEverySeconds: 60,
	}
	var tickNs float64
	b.Run("ticks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunScenarioTicks(sc); err != nil {
				b.Fatal(err)
			}
		}
		tickNs = float64(b.Elapsed()) / float64(b.N)
	})
	b.Run("events", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunScenarioEvents(sc); err != nil {
				b.Fatal(err)
			}
		}
		if tickNs > 0 {
			b.ReportMetric(tickNs/(float64(b.Elapsed())/float64(b.N)), "x-vs-ticks")
		}
	})
}
