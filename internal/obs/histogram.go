package obs

import (
	"math"
	"strconv"
	"sync/atomic"
)

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below UpperBound (non-cumulative; Inf marks the
// overflow bucket).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON encodes the bucket with the overflow bound rendered as the
// string "+Inf" (JSON numbers cannot carry infinities) and finite bounds
// in strconv's shortest round-trip form, keeping snapshots deterministic.
func (b Bucket) MarshalJSON() ([]byte, error) {
	out := []byte(`{"le":`)
	if math.IsInf(b.UpperBound, 1) {
		out = append(out, `"+Inf"`...)
	} else {
		out = strconv.AppendFloat(out, b.UpperBound, 'g', -1, 64)
	}
	out = append(out, `,"count":`...)
	out = strconv.AppendUint(out, b.Count, 10)
	out = append(out, '}')
	return out, nil
}

// LogHistogram is an HDR-style log-bucket histogram for positive values
// spanning many orders of magnitude (delays, RTTs, error bounds): each
// power-of-two octave is split into logSubBuckets linear sub-buckets, so
// relative resolution is constant (~1/logSubBuckets) across the range.
// Zero and negative observations land in a dedicated floor bucket;
// values beyond the covered range clamp into the first or last bucket.
type LogHistogram struct {
	zero    atomic.Uint64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Log-bucket geometry: exponents cover 2^-30 (~1 ns in seconds) through
// 2^33 (~272 years in seconds), 8 sub-buckets per octave.
const (
	logMinExp     = -30
	logMaxExp     = 33
	logSubBuckets = 8
	logNumBuckets = (logMaxExp - logMinExp + 1) * logSubBuckets
)

func newLogHistogram() *LogHistogram {
	return &LogHistogram{buckets: make([]atomic.Uint64, logNumBuckets)}
}

// logIndex maps a positive value to its bucket index, clamping into the
// covered range.
func logIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp < logMinExp {
		return 0
	}
	if exp > logMaxExp || frac >= 1 { // +Inf comes back as (+Inf, 0)
		return logNumBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * logSubBuckets)
	if sub >= logSubBuckets {
		sub = logSubBuckets - 1
	}
	return (exp-logMinExp)*logSubBuckets + sub
}

// logUpperBound returns the upper bound of bucket i: the smallest value
// that would land in bucket i+1.
func logUpperBound(i int) float64 {
	exp := logMinExp + i/logSubBuckets
	sub := i % logSubBuckets
	return math.Ldexp(0.5+(float64(sub)+1)/(2*logSubBuckets), exp)
}

// Observe records one value.
func (h *LogHistogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of one value at the cost of one: the
// buckets, the floor bucket and the count end as n calls to Observe(v)
// leave them, and the sum gains v·n, which differs from n separate
// additions only by rounding. n == 0 records nothing.
func (h *LogHistogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	if v <= 0 || math.IsNaN(v) {
		h.zero.Add(n)
	} else {
		h.buckets[logIndex(v)].Add(n)
	}
	h.count.Add(n)
	if !math.IsNaN(v) {
		addFloat(&h.sumBits, v*float64(n))
	}
}

// Count returns the number of observations (including the floor bucket).
func (h *LogHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *LogHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the non-empty log buckets in increasing bound order
// (the floor bucket, when non-empty, appears first with UpperBound 0).
func (h *LogHistogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	if z := h.zero.Load(); z > 0 {
		out = append(out, Bucket{UpperBound: 0, Count: z})
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, Bucket{UpperBound: logUpperBound(i), Count: n})
		}
	}
	return out
}

// Quantile returns an upper bound on the q-quantile of the observed
// distribution (q in [0, 1]): the upper bound of the bucket where the
// cumulative count crosses q*count. It returns 0 when nothing has been
// observed.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	cum := h.zero.Load()
	if cum >= rank {
		return 0
	}
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return logUpperBound(i)
		}
	}
	return logUpperBound(logNumBuckets - 1)
}

// addFloat CAS-accumulates v into the float64 bits stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}
