package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"disttime/internal/clock"
)

// newServer builds a server over a perfect clock reading value at real
// time t, with the given claimed drift bound and inherited error.
func newServer(t *testing.T, id int, at, value, delta, initialErr float64) *Server {
	t.Helper()
	s, err := NewServer(at, Config{
		ID:           id,
		Clock:        clock.NewDrifting(at, value, 0),
		Delta:        delta,
		InitialError: initialErr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerValidation(t *testing.T) {
	clk := clock.NewDrifting(0, 0, 0)
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "ok", cfg: Config{Clock: clk, Delta: 1e-5}},
		{name: "nil clock", cfg: Config{Delta: 1e-5}, wantErr: true},
		{name: "negative delta", cfg: Config{Clock: clk, Delta: -1}, wantErr: true},
		{name: "negative error", cfg: Config{Clock: clk, InitialError: -1}, wantErr: true},
		{name: "zero delta ok", cfg: Config{Clock: clk}},
		{name: "NaN delta", cfg: Config{Clock: clk, Delta: math.NaN()}, wantErr: true},
		{name: "NaN error", cfg: Config{Clock: clk, InitialError: math.NaN()}, wantErr: true},
		{name: "infinite error ok", cfg: Config{Clock: clk, InitialError: math.Inf(1)}},
		{name: "infinite delta", cfg: Config{Clock: clk, Delta: math.Inf(1), InitialError: 0.1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewServer(0, tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewServer error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestReadingRuleMM1(t *testing.T) {
	// E_i(t) = epsilon_i + (C_i(t) - r_i) * delta_i.
	at := 0.0
	s, err := NewServer(at, Config{
		ID:           1,
		Clock:        clock.NewDrifting(0, 0, 0.01),
		Delta:        0.02,
		InitialError: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Reading(10)
	wantC := 10.1 // 10 * 1.01
	wantE := 0.5 + wantC*0.02
	if math.Abs(r.C-wantC) > 1e-12 {
		t.Errorf("C = %v, want %v", r.C, wantC)
	}
	if math.Abs(r.E-wantE) > 1e-12 {
		t.Errorf("E = %v, want %v", r.E, wantE)
	}
	iv := r.Interval()
	if math.Abs(iv.Midpoint()-wantC) > 1e-12 || math.Abs(iv.HalfWidth()-wantE) > 1e-12 {
		t.Errorf("Interval() = %v", iv)
	}
}

func TestErrorGrowsLinearly(t *testing.T) {
	// Lemma 1: without resets, E_i(t0+dt) = E_i(t0) + delta_i*dt (to first
	// order in delta).
	s := newServer(t, 1, 0, 0, 1e-4, 0.1)
	e0 := s.ErrorAt(100)
	e1 := s.ErrorAt(200)
	if got, want := e1-e0, 100*1e-4; math.Abs(got-want) > 1e-9 {
		t.Errorf("error growth = %v, want %v", got, want)
	}
}

func TestErrorClampedWhenClockBehindReset(t *testing.T) {
	// If a fault yanks the clock behind its reset reference the drift term
	// must clamp at zero rather than shrink the error.
	s := newServer(t, 1, 0, 100, 1e-3, 0.5)
	s.Clock().Set(1, 50) // fault: direct set, bypassing the server
	if got := s.ErrorAt(1); got != 0.5 {
		t.Errorf("ErrorAt = %v, want clamped 0.5", got)
	}
}

func TestAccessors(t *testing.T) {
	s := newServer(t, 7, 0, 0, 1e-5, 0.25)
	if s.ID() != 7 {
		t.Errorf("ID() = %d", s.ID())
	}
	if s.Delta() != 1e-5 {
		t.Errorf("Delta() = %v", s.Delta())
	}
	if s.Epsilon() != 0.25 {
		t.Errorf("Epsilon() = %v", s.Epsilon())
	}
	if s.Clock() == nil {
		t.Error("Clock() = nil")
	}
	if s.Resets() != 0 || s.Inconsistencies() != 0 {
		t.Errorf("fresh server counters: %d resets, %d inconsistencies",
			s.Resets(), s.Inconsistencies())
	}
}

func TestSetClock(t *testing.T) {
	s := newServer(t, 1, 0, 0, 1e-4, 1.0)
	s.SetClock(10, 500, 0.2)
	if got := s.Read(10); got != 500 {
		t.Errorf("Read after SetClock = %v", got)
	}
	if s.Epsilon() != 0.2 {
		t.Errorf("Epsilon = %v", s.Epsilon())
	}
	if s.Resets() != 1 {
		t.Errorf("Resets = %d", s.Resets())
	}
	// Error restarts from the new epsilon.
	if got, want := s.ErrorAt(20), 0.2+10*1e-4; math.Abs(got-want) > 1e-9 {
		t.Errorf("ErrorAt(20) = %v, want %v", got, want)
	}
}

func TestSetClockStuckClockBookkeeping(t *testing.T) {
	// A stuck clock refuses the set; bookkeeping must track the clock's
	// actual value so the reported interval is not silently wrong.
	inner := clock.NewDrifting(0, 0, 0)
	stuck := clock.NewStuck(inner, 0)
	s, err := NewServer(0, Config{Clock: stuck, Delta: 1e-4, InitialError: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetClock(10, 999, 0.1)
	if got := s.Read(10); got != 10 {
		t.Errorf("stuck clock moved: %v", got)
	}
	// resetRef must equal the actual clock value (10), so error grows from
	// 0.1 without a spurious (999-10) deterioration charge.
	if got := s.ErrorAt(10); got != 0.1 {
		t.Errorf("ErrorAt right after refused set = %v, want 0.1", got)
	}
}

func TestConsistentWith(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 2) // interval [98, 102]
	tests := []struct {
		name  string
		reply Reply
		want  bool
	}{
		{name: "overlapping", reply: Reply{C: 103, E: 2}, want: true},
		{name: "disjoint", reply: Reply{C: 110, E: 2}, want: false},
		{name: "rtt extends leading edge", reply: Reply{C: 95, E: 2, RTT: 1}, want: true},
		// [93, 98]: touches own trailing edge.
		{name: "touching", reply: Reply{C: 95.5, E: 2.5}, want: true},
		{name: "far behind", reply: Reply{C: 80, E: 2, RTT: 1}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.ConsistentWith(0, tt.reply); got != tt.want {
				t.Errorf("ConsistentWith(%+v) = %v, want %v", tt.reply, got, tt.want)
			}
		})
	}
}

func TestAdopt(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0.01, 5)
	s.Adopt(0, Reply{From: 2, C: 200, E: 1, RTT: 2})
	if got := s.Read(0); got != 200 {
		t.Errorf("Read after Adopt = %v", got)
	}
	want := 1 + 1.01*2 // E_j + (1+delta)*RTT
	if math.Abs(s.Epsilon()-want) > 1e-12 {
		t.Errorf("Epsilon = %v, want %v", s.Epsilon(), want)
	}
}

func TestMMAcceptsSmallerError(t *testing.T) {
	// Rule MM-2: reset iff E_j + (1+delta_i)*xi <= E_i.
	s := newServer(t, 1, 0, 100, 0.01, 5) // E_i = 5 at t=0
	res := MM{}.Sync(s, 0, []Reply{{From: 2, C: 101, E: 1, RTT: 0.5}})
	if !res.Reset || res.Accepted != 1 {
		t.Fatalf("result = %+v, want reset", res)
	}
	if got := s.Read(0); got != 101 {
		t.Errorf("clock = %v, want adopted 101", got)
	}
	want := 1 + 1.01*0.5
	if math.Abs(s.Epsilon()-want) > 1e-12 {
		t.Errorf("epsilon = %v, want %v", s.Epsilon(), want)
	}
	if s.Resets() != 1 {
		t.Errorf("Resets = %d", s.Resets())
	}
}

func TestMMRejectsLargerError(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0.01, 1) // E_i = 1
	res := MM{}.Sync(s, 0, []Reply{{From: 2, C: 101, E: 2, RTT: 0.5}})
	if res.Reset || res.Accepted != 0 {
		t.Fatalf("result = %+v, want no reset", res)
	}
	if got := s.Read(0); got != 100 {
		t.Errorf("clock moved to %v", got)
	}
}

func TestMMIgnoresInconsistentReply(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0.01, 1) // [99, 101]
	// Tiny error but wildly different clock: inconsistent, must be ignored
	// even though its error is smaller.
	res := MM{}.Sync(s, 0, []Reply{{From: 2, C: 200, E: 0.1, RTT: 0}})
	if res.Reset {
		t.Fatal("reset from inconsistent reply")
	}
	if len(res.Inconsistent) != 1 || res.Inconsistent[0] != 0 {
		t.Errorf("Inconsistent = %v", res.Inconsistent)
	}
	if s.Inconsistencies() != 1 {
		t.Errorf("Inconsistencies = %d", s.Inconsistencies())
	}
}

func TestMMAppliesRepliesInOrder(t *testing.T) {
	// Two acceptable replies: both apply in order; the final state comes
	// from the second (whose adjusted error must beat the error inherited
	// from the first).
	s := newServer(t, 1, 0, 100, 0, 10)
	res := MM{}.Sync(s, 0, []Reply{
		{From: 2, C: 101, E: 4, RTT: 0},
		{From: 3, C: 99, E: 1, RTT: 0},
	})
	if res.Accepted != 2 {
		t.Fatalf("Accepted = %d, want 2", res.Accepted)
	}
	if got := s.Read(0); got != 99 {
		t.Errorf("clock = %v, want 99", got)
	}
	if s.Epsilon() != 1 {
		t.Errorf("epsilon = %v, want 1", s.Epsilon())
	}
}

func TestMMSelfReplyIsNoOp(t *testing.T) {
	// Theorem 2's device: a server answering its own request with zero
	// delay satisfies MM-2 but changes nothing observable.
	s := newServer(t, 1, 0, 100, 0.01, 5)
	self := Reply{From: 1, C: s.Read(0), E: s.ErrorAt(0), RTT: 0}
	res := MM{}.Sync(s, 0, []Reply{self})
	if !res.Reset {
		t.Fatal("self reply should satisfy MM-2")
	}
	if got := s.Read(0); got != 100 {
		t.Errorf("clock = %v", got)
	}
	if s.Epsilon() != 5 {
		t.Errorf("epsilon = %v", s.Epsilon())
	}
}

func TestIMIntersection(t *testing.T) {
	// Hand-computed intersection: own [95, 105]; replies [99, 107] and
	// [96, 100] (zero RTT). a = max(-5, -1, -4) = -1, b = min(5, 7, 0) = 0.
	// New C = 100 + (-1+0)/2 = 99.5, epsilon = 0.5.
	s := newServer(t, 1, 0, 100, 0, 5)
	res := IM{}.Sync(s, 0, []Reply{
		{From: 2, C: 103, E: 4, RTT: 0},
		{From: 3, C: 98, E: 2, RTT: 0},
	})
	if !res.Reset || res.Accepted != 2 {
		t.Fatalf("result = %+v", res)
	}
	if got := s.Read(0); math.Abs(got-99.5) > 1e-12 {
		t.Errorf("clock = %v, want 99.5", got)
	}
	if math.Abs(s.Epsilon()-0.5) > 1e-12 {
		t.Errorf("epsilon = %v, want 0.5", s.Epsilon())
	}
}

func TestIMRTTExtendsLeadingEdge(t *testing.T) {
	// Rule IM-2: L_j = C_j + E_j + (1+delta_i)*xi - C_i.
	s := newServer(t, 1, 0, 100, 0.5, 10)
	res := IM{}.Sync(s, 0, []Reply{{From: 2, C: 100, E: 1, RTT: 2}})
	if !res.Reset {
		t.Fatal("no reset")
	}
	// T = -1, L = 1 + 1.5*2 = 4; self [-10, 10]; [a,b] = [-1, 4].
	if got, want := s.Read(0), 101.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("clock = %v, want %v", got, want)
	}
	if got, want := s.Epsilon(), 2.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("epsilon = %v, want %v", got, want)
	}
}

func TestIMInconsistentServiceNoReset(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 1) // [99, 101]
	res := IM{}.Sync(s, 0, []Reply{{From: 2, C: 200, E: 1, RTT: 0}})
	if res.Reset {
		t.Fatal("reset despite empty intersection")
	}
	if len(res.Inconsistent) == 0 {
		t.Error("inconsistency not reported")
	}
	if s.Inconsistencies() == 0 {
		t.Error("inconsistency not counted")
	}
}

func TestIMDropInconsistent(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 2) // [98, 102]
	res := IM{DropInconsistent: true}.Sync(s, 0, []Reply{
		{From: 2, C: 200, E: 1, RTT: 0}, // falseticker, dropped
		{From: 3, C: 101, E: 1, RTT: 0}, // [100, 102]
	})
	if !res.Reset {
		t.Fatal("no reset after dropping falseticker")
	}
	if len(res.Inconsistent) != 1 || res.Inconsistent[0] != 0 {
		t.Errorf("Inconsistent = %v", res.Inconsistent)
	}
	if got := s.Read(0); math.Abs(got-101) > 1e-12 {
		t.Errorf("clock = %v, want 101", got)
	}
}

func TestIMExcludeSelf(t *testing.T) {
	// Without the self interval, a single reply is adopted wholesale.
	s := newServer(t, 1, 0, 100, 0, 1)
	res := IM{ExcludeSelf: true}.Sync(s, 0, []Reply{{From: 2, C: 150, E: 3, RTT: 0}})
	if !res.Reset {
		t.Fatal("no reset")
	}
	if got := s.Read(0); math.Abs(got-150) > 1e-12 {
		t.Errorf("clock = %v, want 150", got)
	}
	if math.Abs(s.Epsilon()-3) > 1e-12 {
		t.Errorf("epsilon = %v, want 3", s.Epsilon())
	}
}

func TestIMNoRepliesNoReset(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 1)
	res := IM{}.Sync(s, 0, nil)
	if res.Reset {
		t.Error("reset with no replies")
	}
	resNoSelf := IM{ExcludeSelf: true}.Sync(s, 0, nil)
	if resNoSelf.Reset {
		t.Error("reset with no replies and no self")
	}
}

// TestIMTheorem6 confirms the derived interval is never wider than the
// smallest input interval (Theorem 6) on randomized consistent inputs.
func TestIMTheorem6(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		truth := 1000 + rng.Float64()*100
		ownErr := 0.5 + rng.Float64()*5
		ownC := truth + (rng.Float64()*2-1)*ownErr
		s := newServer(t, 1, 0, ownC, 0, ownErr)
		smallest := 2 * ownErr
		var replies []Reply
		for j := 0; j < 1+rng.IntN(6); j++ {
			e := 0.5 + rng.Float64()*5
			c := truth + (rng.Float64()*2-1)*e
			replies = append(replies, Reply{From: 2 + j, C: c, E: e})
			if w := 2 * e; w < smallest {
				smallest = w
			}
		}
		res := IM{}.Sync(s, 0, replies)
		if !res.Reset {
			t.Fatalf("trial %d: correct inputs must intersect", trial)
		}
		if got := 2 * s.Epsilon(); got > smallest+2*adoptSlack(s.Read(0)) {
			t.Fatalf("trial %d: derived width %v > smallest input %v", trial, got, smallest)
		}
		// Correctness is preserved (Theorem 5, zero transit case).
		if !s.Interval(0).Contains(truth) {
			t.Fatalf("trial %d: lost the correct time", trial)
		}
	}
}

func TestFigure3IMFailure(t *testing.T) {
	// Figure 3: a consistent state where MM recovers correctness and IM
	// does not. Correct time 100. S1 [90,102] correct; S2 [91,99]
	// incorrect; S3 [97.5,101.5] correct with the smallest error. The full
	// intersection is S2^S3 = [97.5,99], which excludes the correct time.
	const truth = 100.0
	replies := []Reply{
		{From: 1, C: 96, E: 6},
		{From: 2, C: 95, E: 4},
		{From: 3, C: 99.5, E: 2},
	}

	// A fourth observer with a wide correct interval syncs from these.
	mmServer := newServer(t, 0, 0, 97, 0, 8)
	imServer := newServer(t, 0, 0, 97, 0, 8)

	if res := (MM{}).Sync(mmServer, 0, replies); !res.Reset {
		t.Fatal("MM did not reset")
	}
	if got := mmServer.Read(0); got != 99.5 {
		t.Errorf("MM chose %v, want S3's 99.5", got)
	}
	if !mmServer.Interval(0).Contains(truth) {
		t.Error("MM result incorrect")
	}

	if res := (IM{}).Sync(imServer, 0, replies); !res.Reset {
		t.Fatal("IM did not reset")
	}
	iv := imServer.Interval(0)
	if iv.Contains(truth) {
		t.Errorf("IM result %v unexpectedly correct; figure requires failure", iv)
	}
	if math.Abs(iv.Lo-97.5) > 1e-12 || math.Abs(iv.Hi-99) > 1e-12 {
		t.Errorf("IM interval = %v, want the S2^S3 region [97.5, 99]", iv)
	}
}

func TestLamportMax(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 5)
	res := LamportMax{}.Sync(s, 0, []Reply{
		{From: 2, C: 99, E: 1, RTT: 0},
		{From: 3, C: 103, E: 2, RTT: 1},
	})
	if !res.Reset || res.Accepted != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := s.Read(0); got != 103 {
		t.Errorf("clock = %v, want max 103", got)
	}
	if got, want := s.Epsilon(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("epsilon = %v, want %v", got, want)
	}
}

func TestLamportMaxKeepsOwnLargerClock(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 5)
	res := LamportMax{}.Sync(s, 0, []Reply{{From: 2, C: 98, E: 1}})
	if res.Reset {
		t.Error("reset although own clock is the maximum")
	}
	if got := s.Read(0); got != 100 {
		t.Errorf("clock = %v", got)
	}
}

func TestLamportMaxIgnoresInconsistent(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 1)
	res := LamportMax{}.Sync(s, 0, []Reply{{From: 2, C: 500, E: 0.5}})
	if res.Reset || len(res.Inconsistent) != 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestMedian(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 10)
	res := Median{}.Sync(s, 0, []Reply{
		{From: 2, C: 96, E: 1},
		{From: 3, C: 98, E: 2},
		{From: 4, C: 104, E: 3},
	})
	// Candidates sorted: 96, 98, 100(self), 104 -> median (lower) = 98.
	if !res.Reset {
		t.Fatal("no reset")
	}
	if got := s.Read(0); got != 98 {
		t.Errorf("clock = %v, want median 98", got)
	}
	if got := s.Epsilon(); got != 2 {
		t.Errorf("epsilon = %v, want 2", got)
	}
}

func TestMedianSelfIsMedianNoOp(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 10)
	res := Median{}.Sync(s, 0, []Reply{
		{From: 2, C: 90, E: 1},
		{From: 3, C: 110, E: 1},
	})
	if res.Reset {
		t.Error("reset although self is the median")
	}
	if got := s.Read(0); got != 100 {
		t.Errorf("clock = %v", got)
	}
}

func TestMean(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 6)
	res := Mean{}.Sync(s, 0, []Reply{
		{From: 2, C: 97, E: 3},
		{From: 3, C: 103, E: 3},
	})
	if !res.Reset || res.Accepted != 2 {
		t.Fatalf("result = %+v", res)
	}
	if got := s.Read(0); got != 100 {
		t.Errorf("clock = %v, want mean 100", got)
	}
	if got := s.Epsilon(); got != 4 {
		t.Errorf("epsilon = %v, want mean error 4", got)
	}
}

func TestMeanNoConsistentRepliesNoOp(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 1)
	res := Mean{}.Sync(s, 0, []Reply{{From: 2, C: 500, E: 1}})
	if res.Reset {
		t.Error("reset with no consistent replies")
	}
}

func TestSyncFuncNames(t *testing.T) {
	tests := []struct {
		fn   SyncFunc
		want string
	}{
		{MM{}, "MM"},
		{IM{}, "IM"},
		{LamportMax{}, "max"},
		{Median{}, "median"},
		{Mean{}, "mean"},
		{SelectIM{}, "select-IM"},
	}
	for _, tt := range tests {
		if got := tt.fn.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

// TestTheorem1CorrectnessPreservedOneStep: starting from correct states
// and honest replies (with the remote reading taken sigma seconds before
// receipt, RTT measured on the requester's drifting clock), a sync step
// under MM or IM keeps the requester correct.
func TestTheorem1CorrectnessPreservedOneStep(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, fn := range []SyncFunc{MM{}, IM{}, IM{ExcludeSelf: true}} {
		for trial := 0; trial < 400; trial++ {
			const delta = 1e-3
			drift := (rng.Float64()*2 - 1) * delta
			truth0 := 1000.0
			ownErr := 0.01 + rng.Float64()
			ownC := truth0 + (rng.Float64()*2-1)*ownErr
			s, err := NewServer(truth0, Config{
				ID:           0,
				Clock:        clock.NewDrifting(truth0, ownC, drift),
				Delta:        delta,
				InitialError: ownErr,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Build honest replies: request sent at truth0, reply read at
			// truth0+sigma, received at truth0+sigma+rho. The batch is
			// synchronized after the last arrival, so each reply carries
			// its local-clock Age.
			type pending struct {
				reply  Reply
				recvAt float64
			}
			var collected []pending
			recvT := truth0
			for j := 0; j < 1+rng.IntN(5); j++ {
				sigma := rng.Float64() * 0.05
				rho := rng.Float64() * 0.05
				replyErr := 0.01 + rng.Float64()
				readAt := truth0 + sigma
				replyC := readAt + (rng.Float64()*2-1)*replyErr
				arrive := truth0 + sigma + rho
				if arrive > recvT {
					recvT = arrive
				}
				// RTT as measured on the requester's clock.
				rtt := s.Read(arrive) - s.Read(truth0)
				collected = append(collected, pending{
					reply:  Reply{From: j + 1, C: replyC, E: replyErr, RTT: rtt},
					recvAt: arrive,
				})
			}
			var replies []Reply
			for _, p := range collected {
				p.reply.Age = s.Read(recvT) - s.Read(p.recvAt)
				replies = append(replies, p.reply)
			}
			fn.Sync(s, recvT, replies)
			if !s.Interval(recvT).Contains(recvT) {
				t.Fatalf("%s trial %d: correctness lost: interval %v, truth %v",
					fn.Name(), trial, s.Interval(recvT), recvT)
			}
		}
	}
}

// TestLemma3MinErrorNeverDecreases: the minimum error in a service running
// MM never decreases across a sync step.
func TestLemma3MinErrorNeverDecreases(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 300; trial++ {
		truth := 100.0
		var servers []*Server
		for j := 0; j < 4; j++ {
			e := 0.1 + rng.Float64()
			c := truth + (rng.Float64()*2-1)*e
			servers = append(servers, newServer(t, j, truth, c, 1e-4, e))
		}
		minBefore := math.Inf(1)
		for _, s := range servers {
			minBefore = math.Min(minBefore, s.ErrorAt(truth))
		}
		// Each server syncs against the others with honest zero-delay
		// replies.
		for i, s := range servers {
			var replies []Reply
			for j, o := range servers {
				if j == i {
					continue
				}
				r := o.Reading(truth)
				replies = append(replies, Reply{From: j, C: r.C, E: r.E, RTT: 0})
			}
			MM{}.Sync(s, truth, replies)
		}
		minAfter := math.Inf(1)
		for _, s := range servers {
			minAfter = math.Min(minAfter, s.ErrorAt(truth))
		}
		if minAfter < minBefore-1e-12 {
			t.Fatalf("trial %d: min error decreased %v -> %v", trial, minBefore, minAfter)
		}
	}
}

func TestErrorAtChargesPendingSlew(t *testing.T) {
	// A server over a slewing clock must report the unabsorbed correction
	// as part of its maximum error, or its interval would exclude the
	// correct time while the slew catches up.
	slew := clock.NewSlewing(clock.NewDrifting(0, 5, 0), 0.01)
	s, err := NewServer(0, Config{Clock: slew, Delta: 0, InitialError: 6})
	if err != nil {
		t.Fatal(err)
	}
	// True time 0; clock reads 5; interval [5-6, 5+6] contains 0. Sync
	// wants the clock at 0 with inherited error 0.5.
	s.SetClock(0, 0, 0.5)
	// The slewing clock still reads ~5; pending correction is -5.
	if got := s.Read(0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("slewing clock stepped: %v", got)
	}
	e := s.ErrorAt(0)
	if e < 5.5-1e-9 {
		t.Errorf("ErrorAt = %v, must cover pending correction 5 plus epsilon 0.5", e)
	}
	if !s.Interval(0).Contains(0) {
		t.Error("interval excludes the correct time during slew")
	}
	// As the correction absorbs, the reported error shrinks toward the
	// inherited epsilon.
	s.Read(400) // absorb 0.01 * 400 = 4
	if e := s.ErrorAt(400); e > 0.5+1.0+1e-6 {
		t.Errorf("ErrorAt(400) = %v, want about pending 1 + epsilon 0.5", e)
	}
}

func TestReadingCarriesClaimedDelta(t *testing.T) {
	s := newServer(t, 1, 0, 100, 3e-5, 0.5)
	r := s.Reading(0)
	if r.Delta != 3e-5 {
		t.Errorf("Reading.Delta = %v, want the claimed bound 3e-5", r.Delta)
	}
}

func TestRaiseDeltaRepairsBookkeeping(t *testing.T) {
	// A clock drifting at 4e-2 claiming 1e-5: after 100 s its interval
	// has lost the correct time. Raising the bound to the real drift
	// (plus margin) must restore correctness by charging the
	// under-accounted deterioration to the inherited error.
	s, err := NewServer(0, Config{
		ID:           1,
		Clock:        clock.NewDrifting(0, 0, 0.04),
		Delta:        1e-5,
		InitialError: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Interval(100).Contains(100) {
		t.Fatal("interval should have lost the correct time (offset 4 > E ~0.5)")
	}
	if err := s.RaiseDelta(100, 0.05); err != nil {
		t.Fatal(err)
	}
	if s.Delta() != 0.05 {
		t.Errorf("Delta = %v", s.Delta())
	}
	if !s.Interval(100).Contains(100) {
		t.Errorf("interval %v still excludes the correct time after repair", s.Interval(100))
	}
	// Error now grows at the new bound.
	e0 := s.ErrorAt(100)
	if got, want := s.ErrorAt(200)-e0, 0.05*(100*1.04); math.Abs(got-want) > 1e-6 {
		t.Errorf("post-repair growth = %v, want %v", got, want)
	}
}

func TestRaiseDeltaRefusesLowering(t *testing.T) {
	s := newServer(t, 1, 0, 0, 1e-4, 0.5)
	if err := s.RaiseDelta(0, 1e-5); err == nil {
		t.Error("lowering delta accepted")
	}
	if s.Delta() != 1e-4 {
		t.Errorf("Delta changed to %v", s.Delta())
	}
}

// TestRaiseDeltaRefusesNonFinite refuses a NaN or infinite bound, which
// would leave Delta and E NaN, or E infinite with no way back.
func TestRaiseDeltaRefusesNonFinite(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		s := newServer(t, 1, 0, 0, 1e-4, 0.5)
		if err := s.RaiseDelta(10, d); err == nil {
			t.Errorf("RaiseDelta(%v) accepted", d)
		}
		if s.Delta() != 1e-4 || s.ErrorAt(20) != 0.5+20*1e-4 {
			t.Errorf("RaiseDelta(%v) left Delta %v, ErrorAt(20) %v", d, s.Delta(), s.ErrorAt(20))
		}
	}
}

func TestRaiseDeltaNoopAtSameValue(t *testing.T) {
	s := newServer(t, 1, 0, 0, 1e-4, 0.5)
	e0 := s.ErrorAt(10)
	if err := s.RaiseDelta(10, 1e-4); err != nil {
		t.Fatal(err)
	}
	if got := s.ErrorAt(10); got != e0 {
		t.Errorf("error changed on no-op raise: %v -> %v", e0, got)
	}
}
