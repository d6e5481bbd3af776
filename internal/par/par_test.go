package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrder checks that results land at their input index regardless of
// completion order.
func TestMapOrder(t *testing.T) {
	defer SetLimit(SetLimit(8))
	out := Map(100, func(i int) int {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // scramble completion order
		}
		return i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSequentialLimit checks that SetLimit(1) runs every item inline on
// the calling goroutine, in order.
func TestMapSequentialLimit(t *testing.T) {
	defer SetLimit(SetLimit(1))
	var order []int
	Map(10, func(i int) struct{} {
		order = append(order, i) // safe: inline implies single goroutine
		return struct{}{}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inline execution out of order: %v", order)
		}
	}
}

// TestMapRespectsLimit checks that concurrency never exceeds the budget.
func TestMapRespectsLimit(t *testing.T) {
	const workers = 3
	defer SetLimit(SetLimit(workers))
	var running, peak atomic.Int64
	Map(64, func(i int) struct{} {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent items, budget %d", p, workers)
	}
}

// TestNestedMapNoDeadlock checks that a Map inside a Map completes even
// when the outer Map has consumed the whole budget: inner items simply run
// inline.
func TestNestedMapNoDeadlock(t *testing.T) {
	defer SetLimit(SetLimit(2))
	done := make(chan struct{})
	go func() {
		defer close(done)
		outer := Map(4, func(i int) int {
			inner := Map(4, func(j int) int { return i*10 + j })
			sum := 0
			for _, v := range inner {
				sum += v
			}
			return sum
		})
		for i, v := range outer {
			want := 4*10*i + 6
			if v != want {
				t.Errorf("outer[%d] = %d, want %d", i, v, want)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

// TestMapEmpty checks the degenerate sizes.
func TestMapEmpty(t *testing.T) {
	if out := Map(0, func(int) int { return 1 }); out != nil {
		t.Fatalf("Map(0) = %v, want nil", out)
	}
	if out := Map(-3, func(int) int { return 1 }); out != nil {
		t.Fatalf("Map(-3) = %v, want nil", out)
	}
	if out := Map(1, func(i int) int { return 42 }); len(out) != 1 || out[0] != 42 {
		t.Fatalf("Map(1) = %v", out)
	}
}

// TestSetLimitFloor checks that the budget never drops below 1.
func TestSetLimitFloor(t *testing.T) {
	prev := SetLimit(0)
	defer SetLimit(prev)
	if got := limit.Load(); got != 1 {
		t.Fatalf("limit = %d after SetLimit(0), want 1", got)
	}
	out := Map(3, func(i int) int { return i })
	if len(out) != 3 {
		t.Fatalf("Map under floor limit returned %v", out)
	}
}
