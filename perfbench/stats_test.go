package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75},
		{99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestIntervalUnion(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Second), t0.Add(time.Duration(b) * time.Second)}
	}
	for _, c := range []struct {
		name       string
		ivs        []interval
		wall, busy int
	}{
		{"empty", nil, 0, 0},
		{"one", []interval{at(0, 4)}, 4, 4},
		{"disjoint", []interval{at(0, 1), at(3, 5)}, 3, 3},
		{"overlapping", []interval{at(0, 4), at(2, 6)}, 6, 8},
		{"nested", []interval{at(0, 10), at(2, 3), at(4, 5)}, 10, 12},
		{"touching", []interval{at(0, 2), at(2, 4)}, 4, 4},
		{"unsorted", []interval{at(5, 7), at(0, 2), at(1, 3)}, 5, 6},
		{"empty and reversed spans", []interval{at(1, 1), at(3, 2), at(0, 1)}, 1, 1},
		{"parallel workers", []interval{at(0, 3), at(0, 3), at(3, 6), at(3, 5)}, 6, 11},
	} {
		if got := wallTime(c.ivs); got != time.Duration(c.wall)*time.Second {
			t.Errorf("%s: wallTime = %v, want %ds", c.name, got, c.wall)
		}
		if got := busyTime(c.ivs); got != time.Duration(c.busy)*time.Second {
			t.Errorf("%s: busyTime = %v, want %ds", c.name, got, c.busy)
		}
	}
}
