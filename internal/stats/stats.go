// Package stats provides the small statistical helpers the experiment
// harness uses to summarize simulation runs: moments, order statistics,
// and least-squares slopes for error-growth rates.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean; zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance; zero for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value; +Inf for an empty slice.
func Min(xs []float64) float64 {
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest value; -Inf for an empty slice.
func Max(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// over the sorted copy of xs.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// LinearFit returns the least-squares line y = slope*x + intercept. It
// returns an error with fewer than two points or a degenerate x range.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: mismatched lengths")
	}
	if len(xs) < 2 {
		return 0, 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	// sxx is a sum of squares, so "no x spread" is exactly sxx <= 0.
	if sxx <= 0 {
		return 0, 0, errors.New("stats: degenerate x range")
	}
	slope = sxy / sxx
	return slope, my - slope*mx, nil
}
