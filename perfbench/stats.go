package main

import (
	"math"
	"sort"
	"time"
)

// maxTailQ is the percentile the tail metrics aim for; tailOf falls back
// to a lower one when the sample is too small to support it.
const maxTailQ = 0.99

// minBeyond is how many samples must lie strictly above a reported tail
// percentile for it to count as measured rather than guessed.
const minBeyond = 10

// rankOf is the 0-based nearest-rank index of percentile q in n sorted
// samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// percentile returns the nearest-rank percentile q of xs (sorted in place).
// It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankOf(q, len(xs))]
}

// median is percentile 0.5.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tail is a high-percentile reading together with the percentile that was
// actually supported and the sample count behind it.
type tail struct {
	Value float64
	Q     float64
	N     int
}

// tailOf applies the highest-supported-percentile rule: it reports
// percentile maxTailQ when at least minBeyond samples lie above it, and
// otherwise the highest percentile that still has minBeyond samples above
// it. With minBeyond or fewer samples no percentile qualifies; the
// median is returned with Q = 0.5 so the reading stays defined, and the
// printed Q shows it is not a tail. +Inf samples (failed requests) sort
// last, so they count as missing any limit.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	sort.Float64s(xs)
	if n <= minBeyond {
		return tail{Value: xs[rankOf(0.5, n)], Q: 0.5, N: n}
	}
	r := rankOf(maxTailQ, n)
	if n-1-r < minBeyond {
		r = n - 1 - minBeyond
	}
	q := float64(r+1) / float64(n)
	if q > maxTailQ {
		q = maxTailQ
	}
	return tail{Value: xs[r], Q: q, N: n}
}

// durMillis converts durations to float milliseconds.
func durMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// mean returns the arithmetic mean, 0 for an empty sample.
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
