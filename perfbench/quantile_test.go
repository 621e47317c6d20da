package main

import (
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.995, 100}, {1, 100},
	} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{3, 3, 7, 7, 7}, 0.5); got != 7 {
		t.Errorf("median of {3,3,7,7,7} = %g, want 7", got)
	}
}

func TestSummarizePicksHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n         int
		label     string
		hi, med   float64
		wantBeyon int
	}{
		{10, "max", 10, 5, 0},
		{19, "max", 19, 10, 0},
		{20, "p50", 10, 10, 10},
		{100, "p90", 90, 50, 10},
		{999, "p95", 950, 500, 49},
		{1000, "p99", 990, 500, 10},
		{10000, "p99.9", 9990, 5000, 10},
	} {
		s := seq(c.n)
		rand.New(rand.NewSource(int64(c.n))).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		got := Summarize(s)
		if got.N != c.n || got.HiLabel != c.label || got.Hi != c.hi || got.Median != c.med {
			t.Errorf("Summarize(1..%d) = %+v, want n=%d %s=%g median=%g", c.n, got, c.n, c.label, c.hi, c.med)
		}
	}
	if (Summarize(nil) != Summary{}) {
		t.Error("Summarize(nil) is not the zero Summary")
	}
}

func TestFixedRefusesUnsupportedTail(t *testing.T) {
	if _, err := Fixed(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) accepted")
	}
	got, err := Fixed(seq(1000), 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990", got, err)
	}
}
