package experiments

import (
	"fmt"

	"powercap/internal/cluster"
	"powercap/internal/parallel"
)

// DesScale measures what the shared-clock event core buys: the same
// cluster scenario (Poisson workload churn, a budget step, tick-aligned
// sampling) run once on the O(events) scheduler and once with the legacy
// loop structure that sweeps all N servers every simulated second. The two
// runners drive identical event cursors over exact integer power state, so
// every modeled column is bit-identical between them — the table reports
// the deterministic work accounting (events fired, server-state visits)
// whose ratio is the structural speedup; BenchmarkScenarioSparse in
// internal/cluster measures the corresponding wall-clock.
//
// Sparse regime: 1% of servers churn per minute, samples every 60 s — the
// event loop's work is essentially independent of N·seconds. Dense regime:
// 6% per second with 1 s sampling — the regime where tick loops were an
// honest fit, kept as the floor of the comparison.
func DesScale(scale Scale, seed int64) (Table, error) {
	sizes := []int{1000, 10000}
	if scale == Full {
		sizes = append(sizes, 100000)
	}
	horizon := scale.pick(600, 3600)

	type regime struct {
		name        string
		churn       float64
		sampleEvery int
	}
	regimes := []regime{
		{"sparse", 0.01 / 60, 60},
		{"dense", 0.06, 1},
	}

	t := Table{
		ID:    "desscale",
		Title: "Event-driven vs tick-driven scenario cost (identical results by construction)",
		Columns: []string{
			"n", "regime", "horizon (s)", "churn events", "refreshes",
			"event steps", "event work", "tick work", "work ratio",
			"final power (W)", "violations",
		},
		Notes: []string{
			"both runners replay the same cursors over exact integer milliwatt state, so churn/refresh/power columns are bit-identical — only the work columns (server-state visits) differ",
			"expected shape: the work ratio grows with n in the sparse regime (tick cost is O(n·seconds), event cost is O(events)) and collapses toward the event-count floor in the dense regime",
			"wall-clock for the sparse regime is measured by `go test -bench ScenarioSparse ./internal/cluster` (100k nodes, 1 hour), which reports the event loop's speedup over the tick loop as x-vs-ticks",
		},
	}

	type point struct {
		n int
		r regime
	}
	var points []point
	for _, n := range sizes {
		for _, r := range regimes {
			points = append(points, point{n, r})
		}
	}
	type row struct {
		ev, tick cluster.ScenarioResult
	}
	rows := make([]row, len(points))
	err := parallel.ForEach(len(points), func(k int) error {
		p := points[k]
		sc := cluster.Scenario{
			N:              p.n,
			Seed:           seed + int64(k),
			HorizonSeconds: horizon,
			InitialBudgetW: 130 * float64(p.n),
			BudgetSteps: []cluster.TimedBudget{
				{AtSeconds: float64(horizon) / 2, BudgetW: 115 * float64(p.n)},
			},
			ChurnPerSecond:     p.r.churn,
			SampleEverySeconds: p.r.sampleEvery,
		}
		ev, err := cluster.RunScenarioEvents(sc)
		if err != nil {
			return err
		}
		tick, err := cluster.RunScenarioTicks(sc)
		if err != nil {
			return err
		}
		if ev.ChurnEvents != tick.ChurnEvents || ev.Refreshes != tick.Refreshes ||
			ev.FinalPowerW != tick.FinalPowerW || ev.Violations != tick.Violations {
			return fmt.Errorf("desscale: runners diverged at n=%d %s: event %+v vs tick %+v",
				p.n, p.r.name, ev, tick)
		}
		rows[k] = row{ev: ev, tick: tick}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	for k, p := range points {
		r := rows[k]
		t.AddRow(
			p.n, p.r.name, horizon,
			int(r.ev.ChurnEvents), int(r.ev.Refreshes),
			int(r.ev.Steps), int(r.ev.WorkUnits), int(r.tick.WorkUnits),
			fmt.Sprintf("%.1f", float64(r.tick.WorkUnits)/float64(r.ev.WorkUnits)),
			fmt.Sprintf("%.1f", r.ev.FinalPowerW),
			r.ev.Violations,
		)
	}
	return t, nil
}
