package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0..1) of sorted by the nearest-rank
// rule; 0 for an empty sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantile is the highest quantile up to 0.99 that leaves at least ten
// of n samples above it, so a reported tail always rests on ten samples.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// blockSamples is the smallest block blockQuantiles cuts: enough for a
// 0.99 quantile with ten samples above it.
const blockSamples = 1000

// blockQuantiles splits xs, in arrival order, into as many consecutive
// blocks of at least blockSamples as fit (at least one) and returns the
// median over blocks of each block's p50 and tail quantile, the tail
// quantile used, and the per-block values. The medians keep a stall that hits
// one block from moving the reported figures.
func blockQuantiles(xs []float64) (p50, tail, q float64, mids, tails []float64) {
	blocks := len(xs) / blockSamples
	if blocks < 1 {
		blocks = 1
	}
	per := len(xs) / blocks
	q = tailQuantile(per)
	for b := 0; b < blocks; b++ {
		block := xs[b*per : (b+1)*per]
		if b == blocks-1 {
			block = xs[b*per:]
		}
		s := sortedCopy(block)
		mids = append(mids, quantile(s, 0.5))
		tails = append(tails, quantile(s, q))
	}
	return median(mids), median(tails), q, mids, tails
}
