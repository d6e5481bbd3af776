// Package obs is the repository's dependency-free observability layer:
// a metrics registry (counters, gauges, HDR-style log-bucket histograms)
// plus structured synchronization-round spans.
//
// The paper's evaluation (Section 4, Figures 5-7) is entirely empirical:
// distributions of error bounds, adjustment magnitudes, and round
// outcomes measured across a running service. This package is how the
// reproduction produces those measurements first-class — the simulator,
// the chaos harness, and the real UDP path all report through the same
// registry, and a seeded simulated run serializes to byte-identical
// snapshots and span logs every time.
//
// Two disciplines govern the design:
//
//   - Hot-path updates are allocation-free (PR 1's rule). Metric handles
//     are resolved once at wiring time; Inc/Add/Set/Observe touch only
//     atomics on preallocated arrays. No map lookups, no boxing, no
//     closures per event.
//
//   - Snapshots are deterministic. Metric enumeration is sorted by name,
//     bucket enumeration by index, floats render through strconv's
//     shortest round-trip form — so under a fixed seed two runs emit
//     identical bytes (the mapiter lint analyzer enforces the sorted-keys
//     idiom in this package).
//
// Updates are race-clean: every mutation is a single atomic operation,
// so concurrent real-network callers (the UDP client and server) share a
// registry safely. The float64 sums kept by histograms are CAS loops;
// under concurrency their accumulation order — and hence the exact sum —
// is scheduling-dependent, which is fine for the real-network path and
// irrelevant for the single-threaded simulator, where determinism is the
// contract.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. Metrics are created on first use and
// live for the registry's lifetime; handles returned by the getters are
// stable and safe to cache (the intended hot-path idiom). All methods
// are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	logs     map[string]*LogHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		logs:     make(map[string]*LogHistogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// LogHistogram returns the named HDR-style log-bucket histogram,
// creating it if needed.
func (r *Registry) LogHistogram(name string) *LogHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.logs[name]
	if h == nil {
		h = newLogHistogram()
		r.logs[name] = h
	}
	return h
}

// sortedNames returns m's keys in sorted order. Callers pass a registry
// map while holding r.mu — taking the map by value (rather than reading
// the field here) keeps every access to the guarded fields at the locked
// call sites, where the guardedby analyzer can see the lock.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
