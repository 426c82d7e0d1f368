package main

import (
	"math"
	"sort"
	"strconv"
)

// tailLadder is the percentile ladder latency_tail_ms steps down: the tail
// is the highest rung with at least tailMinBeyond samples above it, so it
// never rests on a handful of outliers. Request counts are fixed by the
// seed and the phase length, so both commits of a comparison pick the same
// rung.
var tailLadder = []int{99, 95, 90, 75}

const tailMinBeyond = 10

// tailRung returns the ladder percentile used for n samples: the highest
// with at least tailMinBeyond samples beyond it, else the lowest rung.
func tailRung(n int) int {
	for _, p := range tailLadder {
		if n*(100-p)/100 >= tailMinBeyond {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. Empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tail returns the tail latency of xs and the name of the rung used.
func tail(xs []float64) (float64, string) {
	p := tailRung(len(xs))
	return percentile(xs, float64(p)), "p" + strconv.Itoa(p)
}

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

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so spreads computed here match the ones Python
// computes from the same runs. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), percentile(s, 50), q(3)
}

// recall is the multiset score-match recall of a ranked answer against the
// exact ranking, as difftest's quality harness scores anytime top-k runs:
// the share of exact scores matched one-for-one by an equal score in the
// answer. Both lists are sorted descending; scores compare exactly because
// both sides compute them from identical integer margins. An empty exact
// ranking is fully recalled.
func recall(got, exact []float64) float64 {
	if len(exact) == 0 {
		return 1
	}
	matched, gi := 0, 0
	for _, want := range exact {
		for gi < len(got) && got[gi] > want {
			gi++
		}
		if gi < len(got) && got[gi] == want {
			matched++
			gi++
		}
	}
	return float64(matched) / float64(len(exact))
}
