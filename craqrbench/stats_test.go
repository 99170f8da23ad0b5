package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(1000)
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 500, 500},
		{90, 900, 100},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	} {
		v, beyond := percentile(s, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g of 1..1000 = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestDistRefusesThinP99(t *testing.T) {
	d := &dist{name: "x", samples: seq(999)}
	if _, err := d.p(99); err == nil {
		t.Error("p99 of 999 samples accepted; it has only 9 samples beyond it")
	}
	d = &dist{name: "x", samples: seq(1000)}
	if v, err := d.p(99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990, nil", v, err)
	}
	if v, err := d.p(50); err != nil || v != 500 {
		t.Errorf("p50 of 1000 samples = %v, %v; want 500, nil", v, err)
	}
	if _, err := (&dist{name: "empty"}).p(50); err == nil {
		t.Error("median of no samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}

func TestBlockP99IgnoresOneStallButNotASharedTail(t *testing.T) {
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = 1
	}
	for i := 1000; i < 1500; i++ { // one stall inside the second block
		samples[i] = 100
	}
	v, blocks, err := blockP99(samples)
	if err != nil || len(blocks) != 5 || v != 1 || blocks[1] != 100 {
		t.Errorf("one stall: blockP99 = %v over blocks %v (%v), want 1 over 5 with the second at 100", v, blocks, err)
	}
	for i := range samples { // a 2 % tail in every block
		samples[i] = 1
		if i%50 == 0 {
			samples[i] = 50
		}
	}
	if v, _, err := blockP99(samples); err != nil || v != 50 {
		t.Errorf("shared tail: blockP99 = %v (%v), want 50", v, err)
	}
	if _, _, err := blockP99(samples[:999]); err == nil {
		t.Error("blockP99 of 999 samples accepted; a p99 needs 1000")
	}
}
