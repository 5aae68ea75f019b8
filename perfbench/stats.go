package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPermille are the percentiles a timing is reported at, in tenths
// of a percent, from the highest down; the median is always reported.
var tailPermille = []int{999, 990, 950, 900, 750}

// highestPercentile returns the highest reportable percentile for n
// samples: the largest of the tail percentiles that leaves at least ten
// samples beyond it, else the median (50). Percentile p leaves
// n*(100-p)/100 samples above it.
func highestPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// interval is one span of wall-clock time.
type interval struct {
	start, end time.Time
}

// busyTime is the sum of the intervals' lengths: concurrent intervals
// count once each, so it exceeds wall time under parallelism.
func busyTime(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		if iv.end.After(iv.start) {
			d += iv.end.Sub(iv.start)
		}
	}
	return d
}

// wallTime is the length of the union of the intervals: time during
// which at least one of them was running.
func wallTime(ivs []interval) time.Duration {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.end.After(iv.start) {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	for i := 0; i < len(s); {
		cur := s[i]
		j := i + 1
		for ; j < len(s) && !s[j].start.After(cur.end); j++ {
			if s[j].end.After(cur.end) {
				cur.end = s[j].end
			}
		}
		total += cur.end.Sub(cur.start)
		i = j
	}
	return total
}
