package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile is only as trustworthy as the samples that exceed it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// fails unless at least minBeyond samples lie strictly beyond its rank.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %d",
			100*p, minBeyond, n, n-k)
	}
	s := sortedCopy(xs)
	return s[k-1], nil
}

// tailPercentile is percentile at p when the sample supports it, otherwise
// at the highest percentile that leaves minBeyond samples beyond it.  It
// returns the value, the percentile actually used, and false when not even
// the median is supported (including an empty sample).
func tailPercentile(xs []float64, p float64) (float64, float64, bool) {
	n := len(xs)
	kMax := n - minBeyond
	if kMax < (n+1)/2 || kMax < 1 {
		return 0, 0, false
	}
	k := int(math.Ceil(p * float64(n)))
	if k > kMax {
		k = kMax
	}
	return sortedCopy(xs)[k-1], float64(k) / float64(n), true
}

// median is the middle of xs (the mean of the middle two for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastestBlocks splits xs, in the order they were measured, into
// consecutive blocks of size samples (a last, shorter block is dropped),
// ranks the blocks by their median, and returns the samples of the
// fastest share of them (at least one block), in block order.  A shared
// host runs a loop at one of several speeds for seconds at a time; the
// fastest blocks are the stretches in which the host was least in the way,
// so statistics over them follow the program rather than the neighbours.
// It returns nil when xs holds no whole block.
func fastestBlocks(xs []float64, size int, share float64) []float64 {
	n := len(xs) / size
	if n == 0 {
		return nil
	}
	type block struct {
		i   int
		med float64
	}
	blocks := make([]block, n)
	for i := range blocks {
		blocks[i] = block{i, median(xs[i*size : (i+1)*size])}
	}
	sort.SliceStable(blocks, func(a, b int) bool { return blocks[a].med < blocks[b].med })
	keep := max(1, int(math.Ceil(share*float64(n))))
	blocks = blocks[:keep]
	sort.Slice(blocks, func(a, b int) bool { return blocks[a].i < blocks[b].i })
	out := make([]float64, 0, keep*size)
	for _, b := range blocks {
		out = append(out, xs[b.i*size:(b.i+1)*size]...)
	}
	return out
}

// spread describes a small sample for the notes: its minimum, quartiles
// and maximum.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "no samples"
	}
	s := sortedCopy(xs)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	return fmt.Sprintf("min %.4g, quartiles %.4g %.4g %.4g, max %.4g", s[0], q(0.25), q(0.5), q(0.75), s[len(s)-1])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a span's extent in nanoseconds since an arbitrary origin.
type interval struct{ start, end int64 }

// coverage returns the total length of the union of ivs clipped to
// [lo, hi]: overlapping intervals count once.
func coverage(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a parent span's duration minus the part of it that its
// children cover; children may overlap one another and stick out of the
// parent.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - coverage(children, parent.start, parent.end)
}

// ms converts a duration in nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
