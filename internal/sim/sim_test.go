package sim

import (
	"math"
	"sort"
	"testing"

	"disttime/internal/obs"
)

// record registers a kind whose events append their tag to got, and
// returns it.
func record(s *Simulator, got *[]uint32) Kind {
	return s.Register(func(tag, _ uint32) bool {
		*got = append(*got, tag)
		return true
	})
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []float64
	k := s.Register(func(uint32, uint32) bool {
		got = append(got, s.Now())
		return true
	})
	for _, at := range []float64{5, 1, 3, 2, 4} {
		s.At(at, k, 0, 0)
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
	var got []uint32
	k := record(s, &got)
	for i := uint32(0); i < 10; i++ {
		s.At(7, k, i, 0)
	}
	s.Run()
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	s := New(1)
	var at float64
	var k Kind
	k = s.Register(func(tag, _ uint32) bool {
		if tag == 0 {
			s.After(5, k, 1, 0)
		} else {
			at = s.Now()
		}
		return true
	})
	s.At(10, k, 0, 0)
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
	ran := false
	k := s.Register(func(uint32, uint32) bool { ran = true; return true })
	s.At(10, k, 0, 0)
	s.Run()
	ran = false
	mustPanic(t, "At(5) at now = 10", func() { s.At(5, k, 0, 0) })
	mustPanic(t, "At(NaN)", func() { s.At(math.NaN(), k, 0, 0) })
	mustPanic(t, "At(+Inf)", func() { s.At(math.Inf(1), k, 0, 0) })
	// Nothing refused left a trace: now itself is accepted and runs.
	s.At(10, k, 0, 0)
	s.Run()
	if !ran || s.Steps() != 2 {
		t.Errorf("after the refused calls: ran = %v, Steps() = %d, want true and 2", ran, s.Steps())
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New(1)
	k := s.Register(func(uint32, uint32) bool { return true })
	mustPanic(t, "After(-1)", func() { s.After(-1, k, 0, 0) })
	mustPanic(t, "After(NaN)", func() { s.After(math.NaN(), k, 0, 0) })
	mustPanic(t, "AfterCall(-1)", func() { s.AfterCall(-1, func(any) {}, nil) })
	mustPanic(t, "AfterCall(NaN)", func() { s.AfterCall(math.NaN(), func(any) {}, nil) })
}

// subject is what a generation-carrying event belongs to: its handler
// drops an event filed under an older generation, as service drops a
// node's ticks across a crash.
type subject struct {
	gen uint32
	got []uint32
}

// register registers the subject's kind on s.
func (sub *subject) register(s *Simulator) Kind {
	return s.Register(func(tag, gen uint32) bool {
		if gen != sub.gen {
			return false
		}
		sub.got = append(sub.got, tag)
		return true
	})
}

// TestCancel checks that an event filed under a generation its subject
// has since outlived runs nothing and counts as cancelled, not executed.
func TestCancel(t *testing.T) {
	s := New(1)
	reg := obs.NewRegistry()
	s.Observe(reg)
	sub := &subject{}
	k := sub.register(s)
	s.At(5, k, 1, sub.gen)
	sub.gen++
	s.Run()
	if len(sub.got) != 0 || s.Steps() != 0 {
		t.Errorf("a stale event ran: got %v, Steps() = %d", sub.got, s.Steps())
	}
	if c := reg.Counter("sim_events_cancelled_total").Value(); c != 1 || s.Now() != 5 {
		t.Errorf("cancelled = %d, Now() = %v, want 1 and 5", c, s.Now())
	}
}

func TestCancelInterleaved(t *testing.T) {
	s := New(1)
	sub := &subject{}
	k := sub.register(s)
	s.At(1, k, 'a', sub.gen)
	sub.gen++ // a is stale before the run starts
	s.At(2, k, 'b', sub.gen)
	s.At(3, k, 'c', sub.gen)
	s.AfterCall(2.5, func(any) { sub.gen++ }, nil) // and c once it passes 2.5
	s.Run()
	if len(sub.got) != 1 || sub.got[0] != 'b' {
		t.Errorf("got %q, want [b]", sub.got)
	}
	if s.Steps() != 2 {
		t.Errorf("Steps() = %d, want 2: b and the bump", s.Steps())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []uint32
	k := record(s, &got)
	for _, at := range []float64{1, 2, 3, 4, 5} {
		s.At(at, k, 0, 0)
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
	var got []uint32
	s.At(3, record(s, &got), 0, 0)
	s.RunUntil(3)
	if len(got) != 1 {
		t.Error("event exactly at boundary did not run")
	}
}

// ticker is a periodic timer the way service keeps one: each tick re-arms
// the next one period on under the tick's own generation, and a bump of
// the generation stops it where it stands.
type ticker struct {
	s      *Simulator
	k      Kind
	period float64
	gen    uint32
	times  []float64
	onTick func()
}

func newTicker(s *Simulator, period float64) *ticker {
	tk := &ticker{s: s, period: period}
	tk.k = s.Register(func(_, gen uint32) bool {
		if gen != tk.gen {
			return false
		}
		tk.times = append(tk.times, s.Now())
		s.After(period, tk.k, 0, gen)
		if tk.onTick != nil {
			tk.onTick()
		}
		return true
	})
	s.After(period, tk.k, 0, tk.gen)
	return tk
}

func TestEvery(t *testing.T) {
	s := New(1)
	reg := obs.NewRegistry()
	s.Observe(reg)
	tk := newTicker(s, 10)
	s.AfterCall(35, func(any) { tk.gen++ }, nil)
	s.RunUntil(100)
	want := []float64{10, 20, 30}
	if len(tk.times) != len(want) {
		t.Fatalf("ticks at %v, want %v", tk.times, want)
	}
	for i := range want {
		if tk.times[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", tk.times, want)
		}
	}
	// Three ticks and the stop ran; the tick pending at the stop did not.
	if c := reg.Counter("sim_events_cancelled_total").Value(); s.Steps() != 4 || c != 1 {
		t.Errorf("Steps() = %d, cancelled = %d after the stop, want 4 and 1", s.Steps(), c)
	}
}

// TestEveryStopWithinTick: a stop that lands within a tick, after the
// tick re-armed, drops the re-armed tick when it fires.
func TestEveryStopWithinTick(t *testing.T) {
	s := New(1)
	tk := newTicker(s, 1)
	tk.onTick = func() {
		if len(tk.times) == 3 {
			tk.gen++
		}
	}
	s.RunUntil(100)
	if len(tk.times) != 3 || s.Steps() != 3 {
		t.Errorf("ticked %d times in %d steps, want 3 and 3", len(tk.times), s.Steps())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var got []float64
		var k Kind
		k = s.Register(func(n, _ uint32) bool {
			got = append(got, s.Now())
			if n < 100 {
				s.After(s.Rand().Float64()*10, k, n+1, 0)
			}
			return true
		})
		s.After(s.Rand().Float64()*10, k, 1, 0)
		s.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("lengths: %d and %d, want 100", len(a), len(b))
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
		k := s.Register(func(uint32, uint32) bool { return true })
		for j := 0; j < 1000; j++ {
			s.After(s.Rand().Float64()*100, k, 0, 0)
		}
		s.Run()
	}
}
