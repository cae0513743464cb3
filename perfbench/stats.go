package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must leave
// beyond it: a tail figure resting on fewer is noise.
const minTail = 10

// tailBeyond is how many of n sorted samples lie beyond the p-th
// percentile taken by nearest rank.
func tailBeyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highestPercentile picks, from candidates, the highest percentile that
// leaves at least minTail of n samples beyond it.
func highestPercentile(n int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if tailBeyond(n, p) >= minTail && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank p-th percentile of xs (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// median is the middle value of xs, averaging the middle pair (NaN when
// empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts operations attempted and failed.
type tally struct {
	attempted, failed int
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never called).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
