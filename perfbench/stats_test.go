package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		xs := seq(c.n)
		got, err := percentile(xs, c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
		if c.n > 0 && xs[0] != float64(c.n) {
			t.Errorf("percentile modified its input")
		}
	}
}

func TestTailPercentileFallsBackToSupportedRank(t *testing.T) {
	v, used, ok := tailPercentile(seq(100), 0.99)
	if !ok || v != 90 || used != 0.9 {
		t.Errorf("tail of 100 at p99 = %g (p%g, %v), want 90 at p90", v, 100*used, ok)
	}
	v, used, ok = tailPercentile(seq(2000), 0.99)
	if !ok || v != 1980 || used != 0.99 {
		t.Errorf("tail of 2000 at p99 = %g (p%g, %v), want 1980 at p99", v, 100*used, ok)
	}
	if _, _, ok := tailPercentile(seq(19), 0.5); ok {
		t.Errorf("19 samples cannot support even the median")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestFastestBlocksKeepsTheFastestStretches(t *testing.T) {
	// Eight blocks of four: slow (10s) and fast (1s) stretches alternate
	// with one outlier inside a fast block.
	var xs []float64
	for b := 0; b < 8; b++ {
		v := 10.0
		if b%3 == 0 {
			v = 1 // blocks 0, 3, 6
		}
		for i := 0; i < 4; i++ {
			xs = append(xs, v+float64(b)/100)
		}
	}
	xs[13] = 50           // block 3 keeps median 1.03
	xs = append(xs, 0, 0) // a partial block is dropped
	got := fastestBlocks(xs, 4, 0.25)
	want := append(append([]float64(nil), xs[0:4]...), xs[12:16]...)
	if len(got) != len(want) {
		t.Fatalf("fastestBlocks kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fastestBlocks kept %v, want %v", got, want)
		}
	}
	if got := fastestBlocks(xs[:3], 4, 0.25); got != nil {
		t.Errorf("no whole block: got %v, want nil", got)
	}
	if got := fastestBlocks(xs[:4], 4, 0.25); len(got) != 4 {
		t.Errorf("one whole block must be kept, got %v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{20, 40}, {10, 30}, // overlap each other: [10,40] counts 30 once
		{35, 38},   // inside another child
		{90, 120},  // sticks out of the parent: 10 inside
		{-5, 5},    // starts before the parent: 5 inside
		{150, 160}, // entirely outside
	}
	if got := selfTime(parent, children); got != 100-30-10-5 {
		t.Errorf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := coverage([]interval{{0, 10}, {10, 20}}, 0, 100); got != 20 {
		t.Errorf("abutting intervals cover %d, want 20", got)
	}
}
