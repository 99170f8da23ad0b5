package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p90 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted samples and how many samples lie strictly beyond its rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	r := rank(p, n)
	return sorted[r-1], n - r
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps p/100·n from rounding up past an exact integer
// (99.9/100·1000 is 999.0000000000001 in floating point).
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// highestPercentile picks the highest of the standard percentiles that
// still has at least minBeyond samples beyond it (false when not even the
// median does).
func highestPercentile(n int) (float64, bool) {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if n > 0 && n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// dist is one timing distribution.
type dist struct {
	name    string
	samples []float64
	sorted  bool
}

func (d *dist) add(v float64) { d.samples = append(d.samples, v); d.sorted = false }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// p returns the p-th percentile, or an error when fewer than minBeyond
// samples lie beyond it (the percentile would rest on a handful of
// outliers).
func (d *dist) p(p float64) (float64, error) {
	d.sort()
	v, beyond := percentile(d.samples, p)
	if beyond < minBeyond && p > 50 {
		return v, fmt.Errorf("%s: p%g needs %d samples beyond it, have %d of %d", d.name, p, minBeyond, beyond, len(d.samples))
	}
	if len(d.samples) == 0 {
		return v, fmt.Errorf("%s: no samples", d.name)
	}
	return v, nil
}

// blockSize is the smallest block a p99 can rest on: ten samples beyond.
const blockSize = 100 * minBeyond

// blockP99 splits samples, in the order they were taken, into as many
// consecutive blocks of at least blockSize as fit, and returns the median
// of the blocks' p99s, and the blocks' p99s in order. One stall — a host preemption, a GC cycle — then
// moves at most the blocks it falls in, while a tail every block shares
// still shows. It fails below blockSize samples.
func blockP99(samples []float64) (float64, []float64, error) {
	n := len(samples)
	k := n / blockSize
	if k == 0 {
		return math.NaN(), nil, fmt.Errorf("p99 needs %d samples, have %d", blockSize, n)
	}
	p99s := make([]float64, k)
	for i := range p99s {
		block := append([]float64(nil), samples[i*n/k:(i+1)*n/k]...)
		sort.Float64s(block)
		p99s[i], _ = percentile(block, 99)
	}
	return median(p99s), p99s, nil
}

// median of a sample (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	if len(s)%2 == 0 && len(s) > 0 {
		v = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return v
}
