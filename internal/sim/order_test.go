package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// face is the scheduling API as the random program sees it, so the same
// program can drive a Simulator and the sorted-slice reference.
type face interface {
	Now() float64
	At(at float64, fn func()) (cancel func())
	After(d float64, fn func()) (cancel func())
	AtCall(at float64, call func(any), arg any) (cancel func())
	AfterCall(d float64, call func(any), arg any) (cancel func())
	Every(period float64, fn func()) (stop func())
	RunUntil(t float64)
	Run()
}

// simFace is a Simulator behind face.
type simFace struct{ *Simulator }

func (f simFace) At(at float64, fn func()) func()   { return f.Simulator.At(at, fn).Cancel }
func (f simFace) After(d float64, fn func()) func() { return f.Simulator.After(d, fn).Cancel }
func (f simFace) AtCall(at float64, call func(any), arg any) func() {
	return f.Simulator.AtCall(at, call, arg).Cancel
}
func (f simFace) AfterCall(d float64, call func(any), arg any) func() {
	return f.Simulator.AfterCall(d, call, arg).Cancel
}

// refEv is one pending event of the reference.
type refEv struct {
	at        float64
	run       func()
	cancelled bool
}

// refSim is the reference: pending events in a slice kept sorted by
// (at, scheduling order), no kernel, no table, nothing reused.
type refSim struct {
	now float64
	q   []*refEv
}

func (r *refSim) Now() float64 { return r.now }

func (r *refSim) At(at float64, fn func()) func() {
	e := &refEv{at: at, run: fn}
	// After everything already pending at the same instant: FIFO.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > at })
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = e
	return func() { e.cancelled = true }
}

func (r *refSim) After(d float64, fn func()) func() { return r.At(r.now+d, fn) }

func (r *refSim) AtCall(at float64, call func(any), arg any) func() {
	return r.At(at, func() { call(arg) })
}

func (r *refSim) AfterCall(d float64, call func(any), arg any) func() {
	return r.At(r.now+d, func() { call(arg) })
}

func (r *refSim) Every(period float64, fn func()) func() {
	stopped := false
	var cancel func()
	var tick func()
	tick = func() {
		fn()
		if !stopped {
			cancel = r.After(period, tick)
		}
	}
	cancel = r.After(period, tick)
	return func() {
		stopped = true
		cancel()
	}
}

// step removes the first pending event, moves the clock to it, and runs it
// unless it was cancelled.
func (r *refSim) step() {
	e := r.q[0]
	r.q = r.q[1:]
	r.now = e.at
	if !e.cancelled {
		e.run()
	}
}

func (r *refSim) RunUntil(t float64) {
	for len(r.q) > 0 && r.q[0].at <= t {
		r.step()
	}
	r.now = t
}

func (r *refSim) Run() {
	for len(r.q) > 0 {
		r.step()
	}
}

// stamp is one line of a program's log: which callback ran (or, negative,
// which top-level step finished) and what Now() said.
type stamp struct {
	id  int
	now float64
}

// program drives k through ops random top-level steps and a final Run. One
// step in runEvery is a RunUntil a little further, one cancels a random
// handle, old or new, fired or not, and the rest schedule through one of
// the five entry points. Callbacks schedule and cancel in turn. Delays are quarter seconds from a handful of values,
// zero included, so most events share their instant with others and the
// FIFO tie-break decides. The log is every callback in execution order
// with the clock it saw, plus the clock after every RunUntil and Run.
func program(k face, seed uint64, ops, runEvery int) []stamp {
	rng := rand.New(rand.NewPCG(seed, 99))
	var log []stamp
	var cancels []func()
	ids := 0
	var spawn func(depth int)
	body := func(id, depth int) {
		log = append(log, stamp{id, k.Now()})
		if depth < 3 {
			for n := rng.IntN(3); n > 0; n-- {
				spawn(depth + 1)
			}
		}
		if rng.IntN(4) == 0 {
			cancels[rng.IntN(len(cancels))]()
		}
	}
	spawn = func(depth int) {
		id := ids
		ids++
		d := float64(rng.IntN(8)) / 4
		fn := func() { body(id, depth) }
		call := func(x any) { body(x.(int), depth) }
		switch rng.IntN(5) {
		case 0:
			cancels = append(cancels, k.At(k.Now()+d, fn))
		case 1:
			cancels = append(cancels, k.After(d, fn))
		case 2:
			cancels = append(cancels, k.AtCall(k.Now()+d, call, id))
		case 3:
			cancels = append(cancels, k.AfterCall(d, call, id))
		case 4:
			// A periodic timer that stops itself from inside its third
			// tick, unless something cancels it first.
			ticks := 0
			var stop func()
			stop = k.Every(d+0.25, func() {
				log = append(log, stamp{id, k.Now()})
				if ticks++; ticks == 3 {
					stop()
				}
			})
			cancels = append(cancels, stop)
		}
	}
	for i := 0; i < ops; i++ {
		switch rng.IntN(runEvery) {
		case 0:
			k.RunUntil(k.Now() + float64(rng.IntN(6))/4)
			log = append(log, stamp{-1, k.Now()})
		case 1:
			if len(cancels) > 0 {
				cancels[rng.IntN(len(cancels))]()
			}
		default:
			spawn(0)
		}
	}
	k.Run()
	return append(log, stamp{-2, k.Now()})
}

// sameLog reports whether the Simulator and the reference log the same
// thing for the program (seed, ops, runEvery), and how many lines that was.
func sameLog(t *testing.T, seed uint64, ops, runEvery int) (bool, int) {
	t.Helper()
	got := program(simFace{New(seed)}, seed, ops, runEvery)
	want := program(&refSim{}, seed, ops, runEvery)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Logf("seed %d: log line %d is %v, reference %v", seed, i, got[min(i, len(got)-1)], want[i])
			return false, len(want)
		}
	}
	return len(got) == len(want), len(want)
}

// TestHeapOrderProperty holds the Simulator to the reference on random
// programs of At, After, AtCall, AfterCall, Every, Cancel, RunUntil and
// Run: same callbacks, same order, same clock at every step.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ok, _ := sameLog(t, seed, 60, 6)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHeapOrderStress is one long program that hardly ever runs before the
// end: thousands of events pending at once on a few dozen distinct
// instants.
func TestHeapOrderStress(t *testing.T) {
	ok, lines := sameLog(t, 3, 5000, 1000)
	if !ok {
		t.Fatal("the Simulator and the reference diverge")
	}
	if lines < 5000 {
		t.Fatalf("the program logged %d lines, want at least one an op", lines)
	}
}
