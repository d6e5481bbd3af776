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
	var tick func()
	tick = func() {
		fired++
		if fired < 10000 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.Run()
	if fired != 10000 {
		t.Fatalf("fired %d events, want 10000", fired)
	}
	if len(s.slots) > 2 {
		t.Fatalf("table holds %d slots after a 1-pending-event run, want <= 2", len(s.slots))
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
}

// TestAtCall checks the closure-free scheduling form: ordering with At
// events and arg delivery.
func TestAtCall(t *testing.T) {
	s := New(1)
	var got []int
	record := func(x any) { got = append(got, x.(int)) }
	s.AtCall(2, record, 2)
	s.At(1, func() { got = append(got, 1) })
	s.AfterCall(3, record, 3)
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AtCall ordering: got %v, want [1 2 3]", got)
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
}

// TestAtCallCancel checks that call-form events honor Cancel.
func TestAtCallCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.AtCall(5, func(any) { ran = true }, nil)
	e.Cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled AtCall event ran")
	}
}

// TestStaleCancelIsNoOp checks that a handle kept past its event's firing
// names nothing: cancelling it must not touch the event that has since
// been scheduled into the same slot.
func TestStaleCancelIsNoOp(t *testing.T) {
	s := New(1)
	old := s.At(1, func() {})
	s.Run()
	ran := false
	fresh := s.At(2, func() { ran = true })
	if fresh.slot != old.slot {
		t.Fatalf("the new event took slot %d, not the freed slot %d: the test proves nothing", fresh.slot, old.slot)
	}
	old.Cancel()
	s.Run()
	if !ran {
		t.Fatal("cancelling a fired event's handle cancelled the event that reused its slot")
	}
}

// TestRunRestsOnLatestScheduled checks where Run leaves the clock: on the
// latest time scheduled, also when that event was cancelled and the last
// one executed is earlier.
func TestRunRestsOnLatestScheduled(t *testing.T) {
	s := New(1)
	s.At(3, func() {})
	s.At(7, func() { t.Error("cancelled event ran") }).Cancel()
	s.Run()
	if s.Now() != 7 || s.Steps() != 1 {
		t.Fatalf("Now() = %v, Steps() = %d after Run, want 7 and 1", s.Now(), s.Steps())
	}
	// With nothing pending Run does nothing, wherever the clock is.
	s.RunUntil(20)
	s.Run()
	if s.Now() != 20 {
		t.Fatalf("Now() = %v after an idle Run, want 20", s.Now())
	}
	// An event that schedules beyond the horizon extends the run.
	s.At(21, func() { s.After(5, func() {}) })
	s.Run()
	if s.Now() != 26 || s.Steps() != 3 {
		t.Fatalf("Now() = %v, Steps() = %d after a chained Run, want 26 and 3", s.Now(), s.Steps())
	}
}

// TestNewStartsNothing checks why a Simulator needs no Close: building
// and running one starts no goroutine.
func TestNewStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	s.After(1, func() {})
	s.Run()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after New and Run, %d before", after, before)
	}
}

// TestObserve checks the three counters: scheduled counts every call,
// executed is Steps, and a cancelled event is counted when the clock
// passes it.
func TestObserve(t *testing.T) {
	s := New(1)
	reg := obs.NewRegistry()
	s.Observe(reg)
	s.At(1, func() {})
	s.AtCall(2, func(any) {}, nil)
	s.At(3, func() {}).Cancel()
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
