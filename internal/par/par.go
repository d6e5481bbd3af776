// Package par is a small deterministic fan-out helper for the experiment
// harness. Every experiment trial in this repository is a pure function of
// its seed, so trials and independent experiments can run on parallel
// workers while their results are merged in fixed input order — the output
// is byte-identical to a sequential run, just earlier.
//
// The package maintains one global worker budget (default GOMAXPROCS).
// Map hands items to spare workers when the budget allows and otherwise
// runs them inline on the calling goroutine. Running inline when the
// budget is exhausted makes nested fan-outs (experiments that themselves
// fan out trials) deadlock-free by construction, and makes SetLimit(1)
// exactly the sequential code path: no goroutines at all. Map is the
// package's one fan-out: the event kernel (internal/sim/shard) runs on its
// caller's goroutine and draws nothing from the budget.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spare is the global budget of extra workers (beyond the calling
// goroutine). A Map with budget b may therefore run on up to b+1 cores.
var spare atomic.Int64

func init() {
	spare.Store(int64(runtime.GOMAXPROCS(0) - 1))
}

// limit mirrors the value last passed to SetLimit (or the default), for
// Limit's benefit; the live budget is the atomic spare counter.
var limit atomic.Int64

func init() {
	limit.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetLimit sets the total worker budget (calling goroutine included) to n
// and returns the previous limit. n < 1 is treated as 1 — fully
// sequential, inline execution. SetLimit must not be called while a Map is
// in flight; the experiment drivers call it once up front.
func SetLimit(n int) int {
	if n < 1 {
		n = 1
	}
	prev := int(limit.Swap(int64(n)))
	spare.Store(int64(n - 1))
	return prev
}

// acquire claims one spare worker slot, reporting whether one was free.
func acquire() bool {
	for {
		v := spare.Load()
		if v <= 0 {
			return false
		}
		if spare.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// release returns a spare worker slot.
func release() { spare.Add(1) }

// Map runs fn(0..n-1) and returns the results indexed by input position.
// Items are handed to spare workers while the global budget allows and run
// inline otherwise; because each result lands at its input index, the
// returned slice is identical to a sequential run regardless of worker
// count or completion order.
func Map[T any](n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if i < n-1 && acquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer release()
				out[i] = fn(i)
			}(i)
		} else {
			// Inline: either the budget is exhausted or this is the last
			// item (the caller may as well do it instead of waiting).
			out[i] = fn(i)
		}
	}
	wg.Wait()
	return out
}
