package sim

import (
	"runtime"
	"testing"

	"disttime/internal/obs"
)

// TestEventPoolReuse checks that the slots of fired events are reused: a
// long schedule/fire cycle must not grow the callback table beyond the
// high-water mark of concurrently pending events.
func TestEventPoolReuse(t *testing.T) {
	s := New(1)
	fired := 0
	var tick func(any)
	tick = func(any) {
		fired++
		if fired < 10000 {
			s.AfterCall(1, tick, nil)
		}
	}
	s.AfterCall(1, tick, nil)
	s.Run()
	if fired != 10000 {
		t.Fatalf("fired %d events, want 10000", fired)
	}
	if len(s.calls) > 2 {
		t.Fatalf("table holds %d slots after a 1-pending-event run, want <= 2", len(s.calls))
	}
}

// TestEventPoolAllocs measures steady-state allocations of a
// schedule/fire cycle: zero once the table and the kernel's pending set
// are warm.
func TestEventPoolAllocs(t *testing.T) {
	s := New(1)
	var cb func(any)
	cb = func(any) {} // callback that schedules nothing
	// Warm the table.
	s.AfterCall(1, cb, nil)
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		s.AfterCall(1, cb, nil)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule/fire cycle allocates %v per op, want 0", allocs)
	}
	k := s.Register(func(uint32, uint32) bool { return true })
	allocs = testing.AllocsPerRun(200, func() {
		s.After(1, k, 0, 0)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("a kind event's schedule/fire cycle allocates %v per op, want 0", allocs)
	}
}

// TestAfterCall checks the call form: its ordering among kind events,
// and arg delivery.
func TestAfterCall(t *testing.T) {
	s := New(1)
	var got []int
	record := func(x any) { got = append(got, x.(int)) }
	k := s.Register(func(tag, _ uint32) bool { got = append(got, int(tag)); return true })
	s.AfterCall(2, record, 2)
	s.At(1, k, 1, 0)
	s.AfterCall(3, record, 3)
	s.At(2, k, 4, 0) // after the call filed earlier at the same instant
	s.Run()
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 4 || got[3] != 3 {
		t.Fatalf("AfterCall ordering: got %v, want [1 2 4 3]", got)
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
}

// TestRunRestsOnLatestScheduled checks where Run leaves the clock: on the
// latest time scheduled, also when that event was stale and the last one
// executed is earlier.
func TestRunRestsOnLatestScheduled(t *testing.T) {
	s := New(1)
	gen := uint32(0)
	var k Kind
	k = s.Register(func(tag, g uint32) bool {
		if g != gen {
			return false
		}
		if tag == 1 {
			s.After(5, k, 0, g)
		}
		return true
	})
	s.At(3, k, 0, gen)
	s.At(7, k, 0, gen)
	gen++
	s.Run()
	if s.Now() != 7 || s.Steps() != 0 {
		t.Fatalf("Now() = %v, Steps() = %d after Run, want 7 and 0", s.Now(), s.Steps())
	}
	// With nothing pending Run does nothing, wherever the clock is.
	s.RunUntil(20)
	s.Run()
	if s.Now() != 20 {
		t.Fatalf("Now() = %v after an idle Run, want 20", s.Now())
	}
	// An event that schedules beyond the horizon extends the run.
	s.At(21, k, 1, gen)
	s.Run()
	if s.Now() != 26 || s.Steps() != 2 {
		t.Fatalf("Now() = %v, Steps() = %d after a chained Run, want 26 and 2", s.Now(), s.Steps())
	}
}

// TestNewStartsNothing checks why a Simulator needs no Close: building
// and running one starts no goroutine.
func TestNewStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	s.AfterCall(1, func(any) {}, nil)
	s.Run()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after New and Run, %d before", after, before)
	}
}

// TestObserve checks the three counters: scheduled counts every event
// filed, executed is Steps, and a stale event is counted cancelled when
// the clock passes it.
func TestObserve(t *testing.T) {
	s := New(1)
	reg := obs.NewRegistry()
	s.Observe(reg)
	k := s.Register(func(_, gen uint32) bool { return gen == 0 })
	s.At(1, k, 0, 0)
	s.AfterCall(2, func(any) {}, nil)
	s.At(3, k, 0, 1)
	s.RunUntil(2)
	for name, want := range map[string]uint64{
		"sim_events_scheduled_total": 3,
		"sim_events_executed_total":  2,
		"sim_events_cancelled_total": 0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("at t=2: %s = %d, want %d", name, got, want)
		}
	}
	s.Run()
	if got := reg.Counter("sim_events_cancelled_total").Value(); got != 1 || s.Steps() != 2 {
		t.Errorf("after Run: cancelled = %d, Steps() = %d, want 1 and 2", got, s.Steps())
	}
}
