package main

import (
	"math"
	"sort"
)

// missed is the latency recorded for a query that got no correct answer
// within the timeout: it sorts above every real latency, so it misses
// every latency limit.
var missed = math.Inf(1)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of values,
// which it sorts in place. Missed queries count as +Inf, so a quantile
// that lands on one is +Inf.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	return sortedQuantile(values, q)
}

// sortedQuantile is quantile over already-sorted values.
func sortedQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	c := append([]float64(nil), values...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// mean returns the arithmetic mean, 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// finite caps +Inf at limit, for printing a quantile that landed on a
// missed query: limit is the timeout, which exceeds every latency limit.
func finite(v, limit float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return limit
	}
	return v
}
