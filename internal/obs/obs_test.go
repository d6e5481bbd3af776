package obs

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("requests_total") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("queue_depth")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var lh *LogHistogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	lh.Observe(1)
	tr.Emit(SyncSpan{})
	if c.Value() != 0 || g.Value() != 0 || lh.Count() != 0 || tr.Spans() != 0 {
		t.Fatal("nil metric handles must be inert")
	}
	if tr.Err() != nil {
		t.Fatal("nil tracer must report no error")
	}
}

func TestLogHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.LogHistogram("rtt")
	// Before any observation: nothing counted, no buckets, quantile 0,
	// and the snapshot still lists the histogram.
	if h.Count() != 0 || h.Sum() != 0 || len(h.Buckets()) != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("empty histogram: count=%d sum=%v buckets=%v q99=%v", h.Count(), h.Sum(), h.Buckets(), h.Quantile(0.99))
	}
	if snap := r.Snapshot(); len(snap.Histograms) != 1 || snap.Histograms[0].Name != "rtt" {
		t.Fatalf("snapshot of an empty histogram = %+v", snap.Histograms)
	}
	// The floor bucket catches zero, negatives, and NaN.
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN())
	if b := h.Buckets(); len(b) != 1 || b[0].UpperBound != 0 || b[0].Count != 3 {
		t.Fatalf("floor bucket = %+v, want one bucket of bound 0 holding 3", b)
	}
	// Every positive observation lands in a bucket whose bound brackets
	// it with constant relative resolution.
	for _, v := range []float64{1e-9, 1e-3, 0.5, 1, 7, 1e6} {
		i := logIndex(v)
		ub := logUpperBound(i)
		if v > ub {
			t.Fatalf("value %v above its bucket bound %v", v, ub)
		}
		if i > 0 {
			lb := logUpperBound(i - 1)
			if v < lb && logIndex(v) != 0 {
				t.Fatalf("value %v below its bucket floor %v", v, lb)
			}
		}
		h.Observe(v)
	}
	// Out-of-range values clamp, not vanish; +Inf is one of them.
	h.Observe(1e-300)
	h.Observe(1e300)
	h.Observe(math.Inf(1))
	if got := int(h.Count()); got != 12 {
		t.Fatalf("count = %d, want 12", got)
	}
	if bk := h.Buckets(); bk[len(bk)-1] != (Bucket{logUpperBound(logNumBuckets - 1), 2}) {
		t.Fatalf("last bucket = %v, want 1e300 and +Inf clamped into the top one", bk[len(bk)-1])
	}
	// Quantile upper-bounds the true quantile within the covered range:
	// 1e300 clamps into the last bucket, so q=1 reports that bucket's
	// bound (the histogram's range ceiling), not the raw observation.
	if q, want := h.Quantile(1), logUpperBound(logNumBuckets-1); q != want {
		t.Fatalf("q1 = %v, want last-bucket bound %v (clamped range)", q, want)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v, want 0 (floor bucket occupied)", q)
	}
}

// TestObserveNMatchesRepeatedObserve holds ObserveN(v, n) to n calls of
// Observe(v) on every path through the bucketing: a positive value, the
// floor bucket's zero, negative and NaN, +Inf clamped into the top
// bucket, and a value below 2^-30 clamped into the bottom one. Buckets
// and count must match exactly; the sum must be n·v where that product
// is exact. n == 0 and a nil receiver record nothing.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	const n = 5
	for _, c := range []struct {
		v     float64
		exact bool // n·v is exact, so the sum must equal it (NaN adds nothing)
	}{
		{0.25, true},
		{0, true},
		{-3, true},
		{math.NaN(), true},
		{math.Inf(1), true},
		{1e-10, false},
	} {
		one, many := newLogHistogram(), newLogHistogram()
		many.ObserveN(c.v, n)
		for range n {
			one.Observe(c.v)
		}
		if !slices.Equal(many.Buckets(), one.Buckets()) || many.Count() != one.Count() {
			t.Errorf("ObserveN(%v, %d): buckets %v count %d; %d Observe calls: buckets %v count %d",
				c.v, n, many.Buckets(), many.Count(), n, one.Buckets(), one.Count())
		}
		wantSum := 0.0
		if !math.IsNaN(c.v) {
			wantSum = n * c.v
		}
		if c.exact && many.Sum() != wantSum {
			t.Errorf("ObserveN(%v, %d): sum %v, want %v", c.v, n, many.Sum(), wantSum)
		}
	}

	h := newLogHistogram()
	h.ObserveN(0.25, 0)
	if h.Count() != 0 || h.Sum() != 0 || len(h.Buckets()) != 0 {
		t.Fatalf("ObserveN(v, 0) recorded: count %d sum %v buckets %v", h.Count(), h.Sum(), h.Buckets())
	}
	var nilHist *LogHistogram
	nilHist.ObserveN(0.25, n)
	if nilHist.Count() != 0 {
		t.Fatal("ObserveN on a nil histogram must be inert")
	}
}

// TestLogHistogramSeparatesSmallCounts: the gossip-entry histograms
// observe small integers, and eight sub-buckets an octave give each of
// 1..15 a bucket of its own, bounded by the next integer at most (from 16
// on, two integers share one).
func TestLogHistogramSeparatesSmallCounts(t *testing.T) {
	for n := 1; n <= 15; n++ {
		i := logIndex(float64(n))
		if i == logIndex(float64(n+1)) {
			t.Errorf("%d and %d share bucket %d", n, n+1, i)
		}
		if ub := logUpperBound(i); ub <= float64(n) || ub > float64(n+1) {
			t.Errorf("%d lands in a bucket bounded by %v, want a bound in (%d, %d]", n, ub, n, n+1)
		}
	}
}

func TestLogHistogramBoundsMonotone(t *testing.T) {
	prev := 0.0
	for i := 0; i < logNumBuckets; i++ {
		ub := logUpperBound(i)
		if ub <= prev {
			t.Fatalf("bucket %d bound %v not above previous %v", i, ub, prev)
		}
		prev = ub
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in scrambled order; snapshots must sort.
		r.Counter("z_total").Add(7)
		r.Counter("a_total").Add(3)
		r.Gauge("m_gauge").Set(1.25)
		h := r.LogHistogram("f_hist")
		lh := r.LogHistogram("d_hist")
		for i := 0; i < 100; i++ {
			h.Observe(float64(i) * 0.07)
			lh.Observe(float64(i) * 1e-3)
		}
		return r
	}
	var buf1, buf2 bytes.Buffer
	if err := build().WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", buf1.String(), buf2.String())
	}
	// Names must appear sorted in the JSON stream.
	s := buf1.String()
	if strings.Index(s, `"a_total"`) > strings.Index(s, `"z_total"`) {
		t.Fatal("counter names not sorted in snapshot")
	}
	if strings.Index(s, `"d_hist"`) > strings.Index(s, `"f_hist"`) {
		t.Fatal("histogram names not sorted in snapshot")
	}

	var p1, p2 bytes.Buffer
	if err := build().WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatal("prometheus expositions differ between identical registries")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total").Add(3)
	r.Gauge("depth").Set(2.5)
	h := r.LogHistogram("lat")
	h.Observe(0.5)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE reqs_total counter\nreqs_total 3\n",
		"# TYPE depth gauge\ndepth 2.5\n",
		`lat_bucket{le="0.5625"} 1`,
		`lat_bucket{le="5.5"} 2`, // cumulative, and only the occupied buckets
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 5.5",
		"lat_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(SyncSpan{
		T: 12.5, Node: 3, Rule: "IM-2", Replies: 4, Accepted: 3,
		Rejected: []int{1}, Reset: true,
		BeforeC: 12.4, BeforeE: 0.2, AfterC: 12.5, AfterE: 0.05,
		Steered: true, Centre: -3e-05, Age: 2.5e-07,
	})
	tr.Emit(SyncSpan{T: 13, Node: 0, Rule: "MM-2"})
	if tr.Spans() != 2 {
		t.Fatalf("spans = %d, want 2", tr.Spans())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	want := `{"span":"sync_round","t":12.5,"node":3,"rule":"IM-2","replies":4,` +
		`"accepted":3,"rejected":[1],"reset":true,"recovered":false,` +
		`"before":{"c":12.4,"e":0.2},"after":{"c":12.5,"e":0.05},` +
		`"rate":{"steered":true,"centre":-3e-05,"age":2.5e-07,"fallback":false}}`
	if lines[0] != want {
		t.Fatalf("span line:\n got %s\nwant %s", lines[0], want)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write refused" }

func TestTracerWriteError(t *testing.T) {
	tr := NewTracer(failWriter{})
	tr.Emit(SyncSpan{})
	tr.Emit(SyncSpan{})
	if tr.Err() == nil {
		t.Fatal("tracer swallowed the write error")
	}
	if tr.Spans() != 2 {
		t.Fatalf("spans = %d, want 2 (emits keep counting after an error)", tr.Spans())
	}
}

// TestConcurrentUpdatesRaceClean exercises every metric kind from many
// goroutines; run with -race this is the registry's race certificate.
func TestConcurrentUpdatesRaceClean(t *testing.T) {
	r := NewRegistry()
	var tr bytes.Buffer
	tracer := NewTracer(&tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("c_total")
			gg := r.Gauge("g")
			lh := r.LogHistogram("lh")
			for i := 0; i < 1000; i++ {
				c.Inc()
				gg.Set(float64(i))
				lh.Observe(float64(i%97) * 1e-3)
				if i%100 == 0 {
					tracer.Emit(SyncSpan{T: float64(i), Node: g})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.LogHistogram("lh").Count(); got != 8000 {
		t.Fatalf("log histogram count = %d, want 8000", got)
	}
	if tracer.Spans() != 80 {
		t.Fatalf("spans = %d, want 80", tracer.Spans())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocationFree verifies PR 1's discipline: steady-state
// metric updates, and the reads a serving loop makes of its own handles,
// perform zero allocations.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	lh := r.LogHistogram("lh")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(2)
		lh.Observe(0.25)
		lh.ObserveN(0.25, 64)
		if c.Value() == 0 || g.Value() != 2 {
			t.Fatalf("counter %d, gauge %v after an update", c.Value(), g.Value())
		}
	})
	if allocs != 0 {
		t.Fatalf("metric updates and reads allocate %v per run, want 0", allocs)
	}
}
