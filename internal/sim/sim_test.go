package sim

import (
	"math"
	"sort"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("ran %d events, want 5", len(got))
	}
	if s.Now() != 5 {
		t.Errorf("Now() = %v, want 5", s.Now())
	}
	if s.Steps() != 5 {
		t.Errorf("Steps() = %v, want 5", s.Steps())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	s := New(1)
	var at float64
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestSchedulePastPanics checks the absolute times sim refuses at its own
// door: the past, NaN (which passes an at < now test, and whose key is
// neither before nor after any other), and +Inf, which no run reaches.
func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {})
	s.Run()
	mustPanic(t, "At(5) at now = 10", func() { s.At(5, func() {}) })
	mustPanic(t, "AtCall(5) at now = 10", func() { s.AtCall(5, func(any) {}, nil) })
	mustPanic(t, "At(NaN)", func() { s.At(math.NaN(), func() {}) })
	mustPanic(t, "At(+Inf)", func() { s.At(math.Inf(1), func() {}) })
	// Nothing refused left a trace: now itself is accepted and runs.
	ran := false
	s.At(10, func() { ran = true })
	s.Run()
	if !ran || s.Steps() != 2 {
		t.Errorf("after the refused calls: ran = %v, Steps() = %d, want true and 2", ran, s.Steps())
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New(1)
	mustPanic(t, "After(-1)", func() { s.After(-1, func() {}) })
	mustPanic(t, "After(NaN)", func() { s.After(math.NaN(), func() {}) })
	mustPanic(t, "AfterCall(NaN)", func() { s.AfterCall(math.NaN(), func(any) {}, nil) })
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.At(5, func() { ran = true })
	e.Cancel()
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	// Cancelling twice, and cancelling the zero handle, are harmless.
	e.Cancel()
	Event{}.Cancel()
}

func TestCancelInterleaved(t *testing.T) {
	s := New(1)
	var got []string
	a := s.At(1, func() { got = append(got, "a") })
	s.At(2, func() { got = append(got, "b") })
	c := s.At(3, func() { got = append(got, "c") })
	a.Cancel()
	s.At(2.5, func() { c.Cancel() })
	s.Run()
	if len(got) != 1 || got[0] != "b" {
		t.Errorf("got %v, want [b]", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunUntil(3)
	if len(got) != 3 {
		t.Errorf("RunUntil(3) ran %d events, want 3", len(got))
	}
	if s.Now() != 3 {
		t.Errorf("Now() = %v, want 3", s.Now())
	}
	s.RunUntil(10)
	if len(got) != 5 {
		t.Errorf("RunUntil(10) total %d events, want 5", len(got))
	}
	if s.Now() != 10 {
		t.Errorf("Now() = %v, want exactly 10", s.Now())
	}
}

func TestRunUntilBackwardsPanics(t *testing.T) {
	s := New(1)
	s.RunUntil(5)
	mustPanic(t, "RunUntil(4) at now = 5", func() { s.RunUntil(4) })
	mustPanic(t, "RunUntil(NaN)", func() { s.RunUntil(math.NaN()) })
	if s.Now() != 5 {
		t.Errorf("Now() = %v after the refused calls, want 5", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	ran := false
	s.At(3, func() { ran = true })
	s.RunUntil(3)
	if !ran {
		t.Error("event exactly at boundary did not run")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	var times []float64
	stop := s.Every(10, func() { times = append(times, s.Now()) })
	s.At(35, func() { stop() })
	s.RunUntil(100)
	want := []float64{10, 20, 30}
	if len(times) != len(want) {
		t.Fatalf("ticks at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", times, want)
		}
	}
	// Three ticks and the stop ran; the tick pending at the stop did not.
	if s.Steps() != 4 {
		t.Errorf("Steps() = %d after stop, want 4", s.Steps())
	}
}

func TestEveryStopWithinTick(t *testing.T) {
	s := New(1)
	n := 0
	var stop func()
	stop = s.Every(1, func() {
		n++
		if n == 3 {
			stop()
		}
	})
	s.RunUntil(100)
	if n != 3 {
		t.Errorf("ticked %d times, want 3", n)
	}
}

func TestEveryBadPeriodPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var got []float64
		var schedule func()
		n := 0
		schedule = func() {
			if n >= 100 {
				return
			}
			n++
			d := s.Rand().Float64() * 10
			s.After(d, func() {
				got = append(got, s.Now())
				schedule()
			})
		}
		schedule()
		s.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(uint64(i))
		for j := 0; j < 1000; j++ {
			s.After(s.Rand().Float64()*100, func() {})
		}
		s.Run()
	}
}
