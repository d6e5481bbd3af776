//go:build !race

package interval

import (
	"math/rand"
	"testing"
)

// TestPooledSweepAllocs holds the package-level entry points, which draw
// their Sweeper from a sync.Pool, at zero allocations once the pool is
// warm. It is the pooled face of TestSweeperAllocs and is not built under
// the race detector, where sync.Pool sheds at random and a pooled call may
// build a new Sweeper.
func TestPooledSweepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	ivs := make([]Interval, 100)
	for i := range ivs {
		ivs[i] = FromEstimate(rng.Float64()*10, 0.5+rng.Float64())
	}
	want := Marzullo(ivs) // warms the pool
	if want.Count < 2 {
		t.Fatalf("Marzullo = %+v, want an overlap", want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got := Marzullo(ivs); got != want {
			t.Fatalf("Marzullo = %+v, want %+v", got, want)
		}
		if _, ok := MarzulloSpan(ivs, want.Count); !ok {
			t.Fatal("no span at the coverage Marzullo reported")
		}
	}); allocs != 0 {
		t.Errorf("warm pooled sweeps allocate %v times, want 0", allocs)
	}
}
