package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		atMost float64
		want   float64
	}{
		{0, 99.9, 50}, {19, 99.9, 50}, {39, 99.9, 50}, {40, 99.9, 75}, {99, 99.9, 75},
		{100, 99.9, 90}, {199, 99.9, 90}, {200, 99.9, 95}, {1000, 99.9, 99}, {10000, 99.9, 99.9},
		{10000, 90, 90}, {99, 90, 75}, {1000, 50, 50},
	} {
		if got := tailPercentile(c.n, c.atMost); got != c.want {
			t.Errorf("n=%d, at most p%g: p%g, want p%g", c.n, c.atMost, got, c.want)
		}
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs, 90)
	if s.N != 100 || s.P50 != 50.5 || s.TailP != 90 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("%+v", s)
	}
	if s := summarize(xs[:30], 90); s.TailP != 50 || s.Tail != s.P50 {
		t.Errorf("30 samples support no tail: %+v", s)
	}
	if s := summarize(nil, 90); s.N != 0 {
		t.Errorf("%+v", s)
	}
}

// The expected cut points are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}
