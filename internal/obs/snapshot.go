package obs

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is one gauge's value at snapshot time.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is one histogram's state at snapshot time. Kind is
// always "log", the one kind there is; the field stays so that snapshot
// files keep their shape. Buckets holds only the non-empty buckets, in
// increasing bound order (non-cumulative counts).
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a full, deterministic picture of a registry: every metric
// sorted by name, every bucket by bound. Equal registry states produce
// equal snapshots, and equal snapshots marshal to equal bytes.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. The enumeration is
// sorted (names, then bucket bounds), so a snapshot of a deterministic
// run is itself deterministic.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	s.Counters = make([]CounterSnapshot, 0, len(r.counters))
	for _, name := range sortedNames(r.counters) {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: r.counters[name].Value()})
	}
	s.Gauges = make([]GaugeSnapshot, 0, len(r.gauges))
	for _, name := range sortedNames(r.gauges) {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: r.gauges[name].Value()})
	}
	s.Histograms = make([]HistogramSnapshot, 0, len(r.logs))
	for _, name := range sortedNames(r.logs) {
		h := r.logs[name]
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name: name, Kind: "log", Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON with a trailing
// newline. The bytes are a pure function of the registry state.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative _bucket/_sum/_count families. Output is
// sorted by metric name, so it is deterministic too.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf []byte
	for _, name := range sortedNames(r.counters) {
		buf = append(buf, "# TYPE "...)
		buf = append(buf, name...)
		buf = append(buf, " counter\n"...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, r.counters[name].Value(), 10)
		buf = append(buf, '\n')
	}
	for _, name := range sortedNames(r.gauges) {
		buf = append(buf, "# TYPE "...)
		buf = append(buf, name...)
		buf = append(buf, " gauge\n"...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = appendFloat(buf, r.gauges[name].Value())
		buf = append(buf, '\n')
	}
	for _, name := range sortedNames(r.logs) {
		h := r.logs[name]
		// Log histograms expose only their non-empty buckets,
		// cumulated; the +Inf bucket is the total count.
		var cum uint64
		sparse := h.Buckets()
		cumBuckets := make([]Bucket, 0, len(sparse)+1)
		for _, b := range sparse {
			cum += b.Count
			cumBuckets = append(cumBuckets, Bucket{UpperBound: b.UpperBound, Count: cum})
		}
		cumBuckets = append(cumBuckets, Bucket{UpperBound: math.Inf(1), Count: h.Count()})
		buf = appendPromHistogram(buf, name, cumBuckets, h.Sum(), h.Count())
	}
	_, err := w.Write(buf)
	return err
}

// appendPromHistogram renders one cumulative histogram family.
func appendPromHistogram(buf []byte, name string, cum []Bucket, sum float64, count uint64) []byte {
	buf = append(buf, "# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, " histogram\n"...)
	for _, b := range cum {
		buf = append(buf, name...)
		buf = append(buf, `_bucket{le="`...)
		if math.IsInf(b.UpperBound, 1) {
			buf = append(buf, "+Inf"...)
		} else {
			buf = appendFloat(buf, b.UpperBound)
		}
		buf = append(buf, `"} `...)
		buf = strconv.AppendUint(buf, b.Count, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_sum "...)
	buf = appendFloat(buf, sum)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count "...)
	buf = strconv.AppendUint(buf, count, 10)
	buf = append(buf, '\n')
	return buf
}

// appendFloat renders v in the shortest form that round-trips, the
// deterministic float encoding used throughout the package.
func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
