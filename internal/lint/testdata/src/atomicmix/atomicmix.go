// Package atomicmix exercises the atomicmix analyzer: the function-style
// sync/atomic API is banned, because its operand is an ordinary word that
// another line may access plainly; the typed atomics are the sanctioned
// form.
package atomicmix

import "sync/atomic"

type stats struct {
	hits   uint64
	misses atomic.Uint64
}

func (s *stats) hit() {
	atomic.AddUint64(&s.hits, 1) // want `sync/atomic\.AddUint64 is a function-style atomic`
}

func (s *stats) loadHits() uint64 {
	return atomic.LoadUint64(&s.hits) // want `sync/atomic\.LoadUint64 is a function-style atomic`
}

// readHits is the tear the ban exists to prevent. The plain load itself is
// not what is reported: without the function-style calls above, hits is an
// ordinary field and this is an ordinary read.
func (s *stats) readHits() uint64 {
	return s.hits
}

// asValue catches a function-style atomic smuggled out as a value.
func asValue() func(*int64, int64) int64 {
	return atomic.AddInt64 // want `sync/atomic\.AddInt64 is a function-style atomic`
}

// miss uses a typed atomic: there is no plain access to mix in, and its
// methods are not package-level functions.
func (s *stats) miss() uint64 {
	s.misses.Add(1)
	return s.misses.Load()
}

var global atomic.Pointer[stats]

func publish(s *stats) *stats {
	global.Store(s)
	return global.Load()
}

// suppressed documents a justified exception.
func suppressed(word *uint32) bool {
	//lint:ignore atomicmix fixture demonstrating a justified suppression of the ban
	return atomic.CompareAndSwapUint32(word, 0, 1)
}
