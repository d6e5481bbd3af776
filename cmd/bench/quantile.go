package main

import (
	"math"

	"disttime/internal/obs"
	"disttime/internal/stats"
)

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics, and 0 when there are no samples.
func quantile(samples []float64, q float64) float64 {
	v, _ := stats.Quantile(samples, q) // the error is "no samples"; q is a constant in [0, 1]
	return v
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// minMax returns the extremes, and 0, 0 when there are no samples.
func minMax(samples []float64) (lo, hi float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	return stats.Min(samples), stats.Max(samples)
}

// bucketQuantile returns the q-quantile of a LogHistogram's buckets,
// interpolating linearly inside the bucket the rank falls in.
// LogHistogram.Quantile returns that bucket's upper bound, and the
// bounds are 6 to 12 % apart, which is coarser than the regression
// bounds this benchmark has to resolve.
func bucketQuantile(buckets []obs.Bucket, q float64) float64 {
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for _, b := range buckets {
		n := float64(b.Count)
		if cum+n >= rank {
			lo := logBucketLower(b.UpperBound)
			return lo + (rank-cum)/n*(b.UpperBound-lo)
		}
		cum += n
	}
	return buckets[len(buckets)-1].UpperBound
}

// logBucketLower returns the lower bound of the LogHistogram bucket
// whose upper bound is ub: every power-of-two octave is cut into eight
// equal sub-buckets, so a bucket in [2^(e-1), 2^e) is 2^e/16 wide.
func logBucketLower(ub float64) float64 {
	if ub <= 0 {
		return ub
	}
	frac, exp := math.Frexp(ub)
	if frac <= 0.5 { // Frexp's floor: ub is the top of its octave, 2^(exp-1)
		exp--
	}
	return ub - math.Ldexp(1.0/16, exp)
}
