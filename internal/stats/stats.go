// Package stats implements the paper's measurement methodology (§4.1.1):
// binned send-rate time series R_τ(t) (Eq. 2), the coefficient of
// variation as the smoothness metric, the pairwise equivalence ratio
// (Eq. 3), and small helpers — means, standard deviations, and 90%
// confidence intervals for the multi-run experiments.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sq float64
	for _, x := range xs {
		sq += (x - m) * (x - m)
	}
	return math.Sqrt(sq / float64(len(xs)))
}

// CoV returns the coefficient of variation σ/μ of a series — the paper's
// variability measure for send rates (§4.1.1, after Jain). A zero mean
// yields 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Percentiles returns the q-quantiles (each in [0, 1]) of xs by linear
// interpolation between order statistics. xs is sorted in place — at a
// million samples the caller keeps ownership rather than paying for a
// defensive copy. An empty xs yields zeros.
func Percentiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for i, q := range qs {
		if q <= 0 {
			out[i] = xs[0]
			continue
		}
		if q >= 1 {
			out[i] = xs[len(xs)-1]
			continue
		}
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 < len(xs) {
			out[i] = xs[lo]*(1-frac) + xs[lo+1]*frac
		} else {
			out[i] = xs[lo]
		}
	}
	return out
}

// Rebin aggregates a base series of bin width baseτ into bins of width
// k·baseτ by summing groups of k, letting one simulation pass feed every
// measurement timescale.
func Rebin(xs []float64, k int) []float64 {
	if k <= 1 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, 0, len(xs)/k)
	for i := 0; i+k <= len(xs); i += k {
		var sum float64
		for j := 0; j < k; j++ {
			sum += xs[i+j]
		}
		out = append(out, sum)
	}
	return out
}

// Equivalence returns the paper's Equation (3) time series: for each bin,
// min(a/b, b/a) ∈ [0, 1], defined only when at least one of the two rates
// is positive; undefined bins are skipped. The second result is the
// number of defined bins.
func Equivalence(a, b []float64) (series []float64, defined int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	series = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if x <= 0 && y <= 0 {
			continue
		}
		if x <= 0 || y <= 0 {
			series = append(series, 0)
			defined++
			continue
		}
		e := x / y
		if e > 1 {
			e = 1 / e
		}
		series = append(series, e)
		defined++
	}
	return series, defined
}

// EquivalenceRatio is the average of the defined equivalence samples —
// the closer to 1, the more equivalent the two flows at this timescale.
func EquivalenceRatio(a, b []float64) float64 {
	series, n := Equivalence(a, b)
	if n == 0 {
		return 0
	}
	return Mean(series)
}

// t90 holds two-sided 90% Student-t critical values by degrees of
// freedom (1-30), falling back to the normal 1.645 beyond.
var t90 = []float64{
	6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

// MeanCI90 returns the sample mean and the half-width of its 90%
// confidence interval (Student t), the error bars of Figures 9-13.
func MeanCI90(xs []float64) (mean, halfWidth float64) {
	n := len(xs)
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	m := mean
	var sq float64
	for _, x := range xs {
		sq += (x - m) * (x - m)
	}
	s := math.Sqrt(sq / float64(n-1)) // sample stddev
	t := 1.645
	if df := n - 1; df <= len(t90) {
		t = t90[df-1]
	}
	return mean, t * s / math.Sqrt(float64(n))
}
