package main

import (
	"math"
	"sort"

	"powercap/internal/stats"
)

// tailLadder lists the percentiles a timing may be reported at besides the
// median, lowest first.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder, no higher
// than atMost, that still has at least ten of the n samples beyond it. It
// returns 50 when not even the 75th has: a tail read off fewer than ten
// samples is one outlier, not a distribution.
func tailPercentile(n int, atMost float64) float64 {
	best := 50.0
	for _, p := range tailLadder {
		// n·(100−p)/100 ≥ 10, with room for 100−99.9 not being 0.1 exactly.
		if p <= atMost && float64(n)*(100-p) >= 1000-1e-6 {
			best = p
		}
	}
	return best
}

// timing summarises one family of latency samples: the median, the highest
// percentile the sample supports (capped at the one the metric names), and
// the count.
type timing struct {
	N     int
	P50   float64
	Tail  float64 // value at TailP
	TailP float64
}

func summarize(samples []float64, atMost float64) timing {
	t := timing{N: len(samples)}
	if t.N == 0 {
		return t
	}
	t.P50 = stats.Percentile(samples, 50)
	t.TailP = tailPercentile(t.N, atMost)
	t.Tail = stats.Percentile(samples, t.TailP)
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default, exclusive method), so
// that compare judges spread exactly as the acceptance procedure does. It
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; zero for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}
