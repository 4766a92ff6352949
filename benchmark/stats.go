package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary is how every timing is reported: the sample count, the median and
// the quartiles around it.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive" method),
// so a spread printed here is the spread whoever re-checks the numbers with
// that function gets. One sample is its own median and quartiles.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after clamping j, so the ends extrapolate as Python's do
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{N: n, Q1: cut(1), Median: cut(2), Q3: cut(3)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the distance between the quartiles as a share of the median —
// the run-to-run noise figure the regression bounds are set against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// percentile is the nearest-rank percentile (0 < p <= 100) of ascending s.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9)) // the slack keeps 99.9% of 10000 at 9990
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// highestSupported returns the highest ladder percentile that still has at
// least ten samples beyond it, and its value: with fewer samples than that a
// "p99" is one or two outliers, not a percentile. ok is false below twenty
// samples, where not even the median qualifies.
func highestSupported(xs []float64) (p, value float64, ok bool) {
	s := sortedCopy(xs)
	for _, q := range tailLadder {
		if float64(len(s))*(100-q) >= 1000-1e-6 { // ten beyond; the slack absorbs 100-99.9 in binary
			p, ok = q, true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return p, percentile(s, p), true
}

// windowedTail is the gated tail metric: the median over fixed windows of
// each window's nearest-rank percentile p. One scheduler hiccup spoils one
// window instead of the whole run's tail. Empty windows are skipped.
func windowedTail(windows [][]float64, p float64) float64 {
	var tails []float64
	for _, w := range windows {
		if len(w) > 0 {
			tails = append(tails, percentile(sortedCopy(w), p))
		}
	}
	return median(tails)
}

// upperQuartile is the tail of a batch loop, whose ten to forty repetitions
// support no higher percentile.
func upperQuartile(xs []float64) float64 { return summarize(xs).Q3 }
