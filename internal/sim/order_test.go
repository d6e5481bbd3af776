package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"disttime/internal/obs"
)

// face is the scheduling API as the random program sees it, so the same
// program can drive a Simulator and the sorted-slice reference.
type face interface {
	Now() float64
	Register(h Handler) Kind
	At(at float64, k Kind, tag, gen uint32)
	After(d float64, k Kind, tag, gen uint32)
	AfterCall(d float64, fn func(any), arg any)
	RunUntil(t float64)
	Run()
	// counts returns the events executed and the events dropped as
	// stale so far.
	counts() (executed, cancelled uint64)
}

// simFace is a Simulator behind face, its counts read from its registry.
type simFace struct {
	*Simulator
	reg *obs.Registry
}

func newSimFace(seed uint64) simFace {
	f := simFace{New(seed), obs.NewRegistry()}
	f.Observe(f.reg)
	return f
}

func (f simFace) counts() (uint64, uint64) {
	return f.Steps(), f.reg.Counter("sim_events_cancelled_total").Value()
}

// refEv is one pending event of the reference.
type refEv struct {
	at       float64
	k        Kind
	tag, gen uint32
}

// refSim is the reference: pending events in a slice kept sorted by
// (at, scheduling order), no kernel, no table, nothing reused.
type refSim struct {
	now                 float64
	q                   []refEv
	handlers            []Handler
	calls               []call // every AfterCall ever made, kind 0's tags indexing them
	executed, cancelled uint64
}

func newRefSim() *refSim {
	r := &refSim{}
	r.Register(func(i, _ uint32) bool {
		r.calls[i].fn(r.calls[i].arg)
		return true
	})
	return r
}

func (r *refSim) Now() float64 { return r.now }

func (r *refSim) Register(h Handler) Kind {
	r.handlers = append(r.handlers, h)
	return Kind(len(r.handlers) - 1)
}

func (r *refSim) At(at float64, k Kind, tag, gen uint32) {
	// After everything already pending at the same instant: FIFO.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > at })
	r.q = append(r.q, refEv{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = refEv{at, k, tag, gen}
}

func (r *refSim) After(d float64, k Kind, tag, gen uint32) { r.At(r.now+d, k, tag, gen) }

func (r *refSim) AfterCall(d float64, fn func(any), arg any) {
	r.calls = append(r.calls, call{fn, arg})
	r.After(d, 0, uint32(len(r.calls)-1), 0)
}

// step removes the first pending event, moves the clock to it, runs its
// handler and counts what the handler said.
func (r *refSim) step() {
	e := r.q[0]
	r.q = r.q[1:]
	r.now = e.at
	if r.handlers[e.k](e.tag, e.gen) {
		r.executed++
	} else {
		r.cancelled++
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

func (r *refSim) counts() (uint64, uint64) { return r.executed, r.cancelled }

// stamp is one line of a program's log: which event ran (or, negative,
// which top-level step finished) and what Now() said, and at the end of
// a top-level step the events executed and dropped so far.
type stamp struct {
	id                  int
	now                 float64
	executed, cancelled uint64
}

// subjects is how many generations a program keeps: every event belongs
// to one, its id modulo subjects, and is filed under its current
// generation.
const subjects = 64

// program drives k through ops random top-level steps and a final Run.
// One step in runEvery is a RunUntil a little further, one bumps a random
// subject's generation, so that its pending events are stale when they
// fire, and the rest file an event through At, After, AfterCall, or a
// periodic timer that re-arms itself for three ticks. Events file
// children and bump generations in turn. Delays are quarter seconds from
// a handful of values, zero included, so most events share their instant
// with others and the FIFO tie-break decides. The log is every event run
// in execution order with the clock it saw, plus the clock and the counts
// after every RunUntil and Run.
func program(k face, seed uint64, ops, runEvery int) []stamp {
	rng := rand.New(rand.NewPCG(seed, 99))
	var log []stamp
	var gens [subjects]uint32
	var depth, ticks []int // per event id: its depth, and a periodic timer's ticks left
	var period []float64
	var spawn func(depth int)
	body := func(id int) {
		log = append(log, stamp{id: id, now: k.Now()})
		if depth[id] < 3 {
			for n := rng.IntN(3); n > 0; n-- {
				spawn(depth[id] + 1)
			}
		}
		if rng.IntN(32) == 0 {
			gens[rng.IntN(subjects)]++
		}
	}
	var kind Kind
	kind = k.Register(func(tag, gen uint32) bool {
		id := int(tag)
		if gen != gens[id%subjects] {
			return false
		}
		body(id)
		if ticks[id]--; ticks[id] > 0 {
			k.After(period[id], kind, tag, gen)
		}
		return true
	})
	spawn = func(d int) {
		id := len(depth)
		depth, ticks, period = append(depth, d), append(ticks, 1), append(period, 0)
		tag, gen := uint32(id), gens[id%subjects]
		delay := float64(rng.IntN(8)) / 4
		switch rng.IntN(4) {
		case 0:
			k.At(k.Now()+delay, kind, tag, gen)
		case 1:
			k.After(delay, kind, tag, gen)
		case 2:
			// The call form: no generation, never stale.
			k.AfterCall(delay, func(x any) { body(x.(int)) }, id)
		case 3:
			ticks[id], period[id] = 3, delay+0.25
			k.After(period[id], kind, tag, gen)
		}
	}
	counted := func(id int) {
		s := stamp{id: id, now: k.Now()}
		s.executed, s.cancelled = k.counts()
		log = append(log, s)
	}
	for i := 0; i < ops; i++ {
		switch rng.IntN(runEvery) {
		case 0:
			k.RunUntil(k.Now() + float64(rng.IntN(6))/4)
			counted(-1)
		case 1:
			gens[rng.IntN(subjects)]++
		default:
			spawn(0)
		}
	}
	k.Run()
	counted(-2)
	return log
}

// sameLog reports whether the Simulator and the reference log the same
// thing for the program (seed, ops, runEvery), how many lines that was,
// and how many events the reference dropped as stale.
func sameLog(t *testing.T, seed uint64, ops, runEvery int) (ok bool, lines int, cancelled uint64) {
	t.Helper()
	got := program(newSimFace(seed), seed, ops, runEvery)
	want := program(newRefSim(), seed, ops, runEvery)
	last := want[len(want)-1]
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Logf("seed %d: log line %d is %v, reference %v", seed, i, got[min(i, len(got)-1)], want[i])
			return false, len(want), last.cancelled
		}
	}
	return len(got) == len(want), len(want), last.cancelled
}

// TestHeapOrderProperty holds the Simulator to the reference on random
// programs of At, After, AfterCall, self-re-arming timers, generation
// bumps, RunUntil and Run: same events, same order, same clock at every
// step, the same cut at every RunUntil, and the same counts of events
// executed and dropped as stale.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ok, _, _ := sameLog(t, seed, 60, 6)
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
	ok, lines, cancelled := sameLog(t, 3, 5000, 1000)
	if !ok {
		t.Fatal("the Simulator and the reference diverge")
	}
	if lines < 5000 || cancelled == 0 {
		t.Fatalf("the program logged %d lines and dropped %d events, want at least one line an op and a stale event", lines, cancelled)
	}
}
