package par

import (
	"sync/atomic"
	"testing"
)

// TestPoolRunsEveryShare checks each Run calls fn exactly once per share,
// at every budget level from fully inline to fully parallel.
func TestPoolRunsEveryShare(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		prev := SetLimit(workers)
		p := NewPool(4)
		var hits [4]atomic.Int64
		for round := 0; round < 50; round++ {
			p.Run(func(i int) { hits[i].Add(1) })
		}
		p.Close()
		SetLimit(prev)
		for i := range hits {
			if got := hits[i].Load(); got != 50 {
				t.Fatalf("limit %d: share %d ran %d times, want 50", workers, i, got)
			}
		}
	}
}

// TestPoolBarrier checks Run does not return before every share finished:
// each share bumps a counter, and the value observed right after Run must
// be complete.
func TestPoolBarrier(t *testing.T) {
	prev := SetLimit(8)
	defer SetLimit(prev)
	p := NewPool(8)
	defer p.Close()
	var n atomic.Int64
	for round := 1; round <= 100; round++ {
		p.Run(func(i int) { n.Add(1) })
		if got := n.Load(); got != int64(round*8) {
			t.Fatalf("round %d: %d shares done after Run, want %d", round, got, round*8)
		}
	}
}

// TestPoolBudget checks the pool claims spare workers from the global
// budget and returns them on Close.
func TestPoolBudget(t *testing.T) {
	prev := SetLimit(4) // 3 spare
	defer SetLimit(prev)
	p := NewPool(8)
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d with 3 spare slots, want 3", p.Workers())
	}
	if acquire() {
		release()
		t.Fatal("budget not exhausted while pool holds it")
	}
	p.Close()
	if !acquire() {
		t.Fatal("budget not returned by Close")
	}
	release()
	p.Close() // idempotent
}

// TestPoolInline checks a single-slot budget yields a goroutine-free pool
// that still runs every share.
func TestPoolInline(t *testing.T) {
	prev := SetLimit(1)
	defer SetLimit(prev)
	p := NewPool(4)
	defer p.Close()
	if p.Workers() != 0 {
		t.Fatalf("Workers() = %d under SetLimit(1), want 0", p.Workers())
	}
	order := make([]int, 0, 4)
	p.Run(func(i int) { order = append(order, i) })
	if len(order) != 4 {
		t.Fatalf("inline Run hit %d shares, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline Run order %v, want ascending", order)
		}
	}
}

// TestPoolMinShares checks NewPool clamps share counts below one.
func TestPoolMinShares(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	var ran []int
	p.Run(func(i int) { ran = append(ran, i) })
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("Run fanned out over shares %v, want [0]", ran)
	}
}
