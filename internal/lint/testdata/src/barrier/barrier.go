// Package barrier exercises the barrier analyzer: a WaitGroup re-Wait
// without re-arming.
package barrier

import "sync"

func worker(wg *sync.WaitGroup) { wg.Done() }

// reWait: after the first Wait the counter is zero, so the second
// Wait synchronizes nothing.
func reWait() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg)
	wg.Wait()
	wg.Wait() // want "re-Wait of WaitGroup wg"
}

// okPattern is the canonical correct shape: Add before go, deferred
// Done, one Wait (false-positive guard).
func okPattern(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// reArmed re-Waits legitimately: an Add intervenes (false-positive
// guard).
func reArmed() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
}

// suppressedWait documents a deliberately benign re-Wait.
func suppressedWait() {
	var wg sync.WaitGroup
	wg.Wait()
	//lint:ignore barrier the counter is never armed in this fixture so both Waits are no-ops
	wg.Wait()
}
