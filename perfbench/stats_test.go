package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 50, 10, true},
		{19, 50, 10, false},
		{100, 90, 90, true},
		{99, 90, 90, false},
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{1, 50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%v of %d samples = %v (enough %v), want %v (enough %v)", tc.p, tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples claims enough samples")
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	got := coveredNS(0, 100, []interval{{10, 30}, {20, 40}, {90, 150}, {-5, 5}})
	if want := int64(30 + 10 + 5); got != want {
		t.Fatalf("covered %d, want %d", got, want)
	}
}
