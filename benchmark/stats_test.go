package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) of Python 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 30, 20}, [3]float64{10, 20, 30}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != len(c.xs) || s.Q1 != c.want[0] || s.Median != c.want[1] || s.Q3 != c.want[2] {
			t.Errorf("summarize(%v) = %+v, want quartiles %v", c.xs, s, c.want)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got, want := s.spread(), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if !math.IsInf(summary{N: 3}.spread(), 1) {
		t.Error("a zero median must give an infinite spread, not a division by zero")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHighestSupported(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, _, ok := highestSupported(ramp(19)); ok {
		t.Error("19 samples leave fewer than ten beyond any percentile")
	}
	for _, c := range []struct {
		n    int
		p, v float64
	}{{20, 50, 10}, {40, 75, 30}, {999, 95, 950}, {1000, 99, 990}, {10000, 99.9, 9990}} {
		p, v, ok := highestSupported(ramp(c.n))
		if !ok || p != c.p || v != c.v {
			t.Errorf("highestSupported(1..%d) = p%v %v %v, want p%v %v", c.n, p, v, ok, c.p, c.v)
		}
	}
}

func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	windows := make([][]float64, 9)
	for w := range windows {
		for i := 0; i < 100; i++ {
			windows[w] = append(windows[w], 1)
		}
	}
	for i := 90; i < 100; i++ {
		windows[4][i] = 1000 // a hiccup: ten slow requests in one window
	}
	windows = append(windows, nil) // an empty trailing window is skipped
	if got := windowedTail(windows, 99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1: one spoiled window must not move the median", got)
	}
	var all []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	if got := percentile(sortedCopy(all), 99); got != 1000 {
		t.Errorf("whole-run p99 = %v, want 1000: the raw percentile does see the hiccup", got)
	}
}

func TestUpperQuartile(t *testing.T) {
	if got := upperQuartile([]float64{1, 2, 3, 4, 5}); got != 4.5 {
		t.Errorf("upperQuartile = %v, want 4.5", got)
	}
}
