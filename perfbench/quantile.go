package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes one metric's raw samples: the sample count, the
// median, and the highest percentile that at least ten samples lie
// beyond. Every figure is an order statistic of the raw samples (nearest
// rank), never an interpolation between histogram buckets.
type Summary struct {
	N      int
	Median float64
	// HiLabel names the highest supported percentile ("p99", "p99.9",
	// ...) or "max" when fewer than 20 samples exist, in which case Hi
	// is the largest sample.
	HiLabel string
	Hi      float64
}

// hiLadder lists the candidate tail percentiles, highest first.
var hiLadder = []struct {
	q     float64
	label string
}{
	{0.9999, "p99.99"},
	{0.999, "p99.9"},
	{0.99, "p99"},
	{0.95, "p95"},
	{0.9, "p90"},
	{0.75, "p75"},
	{0.5, "p50"},
}

// Quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a share q of all samples at or below it.
// sorted must be ascending and non-empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("perfbench: quantile of no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// Beyond reports how many of n samples lie strictly above the
// nearest-rank q-quantile's rank.
func Beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	return n - min(max(rank, 1), n)
}

// Summarize sorts a copy of samples and summarises them. It returns the
// zero Summary for no samples.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := Summary{N: len(s), Median: Quantile(s, 0.5), HiLabel: "max", Hi: s[len(s)-1]}
	for _, c := range hiLadder {
		if Beyond(len(s), c.q) >= 10 {
			out.HiLabel, out.Hi = c.label, Quantile(s, c.q)
			break
		}
	}
	return out
}

// Fixed returns the nearest-rank q-quantile of samples (unsorted) and
// an error when fewer than ten samples lie beyond it — a tail figure
// the sample cannot support.
func Fixed(samples []float64, q float64) (float64, error) {
	if b := Beyond(len(samples), q); b < 10 {
		return 0, fmt.Errorf("p%g needs at least ten samples beyond it, have %d of %d", 100*q, b, len(samples))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Quantile(s, q), nil
}
