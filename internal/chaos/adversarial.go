package chaos

import (
	"fmt"
	"math/rand/v2"
)

// This file is the adversarial scheduler: instead of sampling fault
// schedules blindly (Generate), it hill-climbs them toward a monitor
// violation. The gradient is Verdict.MinSlack — the tightest containment
// margin any asserted check saw. A mutation that tightens the margin is
// kept; one that loosens it is discarded; a mutation that produces a
// violation ends the search and hands the campaign to Shrink. Against a
// sound synchronization function the search converges to a small
// positive slack and stops — 50 seeded searches finding nothing is the
// acceptance evidence for byzIM — while against a planted bug (BuggyIM)
// the same search walks into a violation within a few steps, which is
// the harness's proof that the search itself has teeth.
//
// Everything is a pure function of the seed: the starting campaign, the
// mutation sequence, and the accept/reject decisions, so an adversarial
// run is as replayable as a generated one.

// AdversarialConfig sizes one adversarial search.
type AdversarialConfig struct {
	// Seed derives the starting campaign and the mutation stream.
	Seed uint64
	// Steps is how many mutations to try; it must be positive.
	Steps int
	// Run executes candidates; nil means the production Run. Self-tests
	// pass a RunInjected closure to search against a planted bug.
	Run Runner
}

// AdversarialResult is the outcome of one search.
type AdversarialResult struct {
	// Found reports that some candidate violated an invariant.
	Found bool
	// Best is the tightest campaign the search reached — the violating
	// one when Found, otherwise the one with the smallest slack.
	Best Campaign
	// Verdict is Best's verdict; its MinSlack is the search's final score.
	Verdict Verdict
	// Shrunk is the minimized reproducer when Found.
	Shrunk *ShrinkResult
	// Evals counts campaign executions, including shrinking.
	Evals int
}

// GenerateAdversarial derives the search's starting campaign from a
// seed: a full mesh of byzIM servers with one to F = floor((N-1)/3)
// two-faced liars on distinct targets — the exact regime the
// byz-containment invariant asserts unconditionally, so every
// containment check is live and the slack gradient is meaningful. The
// same seed always yields the same campaign.
func GenerateAdversarial(seed uint64) Campaign {
	rng := rand.New(rand.NewPCG(seed^0xda3e39cb94b95bdb, seed*0x9e3779b97f4a7c15+0x6a09e667f3bcc909))
	c := Campaign{
		Seed:   seed,
		N:      4 + rng.IntN(5), // 4..8: a liar budget of 1..2
		Topo:   "mesh",
		FnName: "byzIM",
		Dur:    300,
		Sync:   20,
	}
	budget := (c.N - 1) / 3
	liars := 1 + rng.IntN(budget)
	targets := rng.Perm(c.N)[:liars]
	for _, tgt := range targets {
		c.Faults = append(c.Faults, randomLiar(rng, c, tgt))
	}
	sortFaults(c.Faults)
	return c
}

// randomLiar draws one two-faced fault against target tgt with on-grid
// times inside the campaign.
func randomLiar(rng *rand.Rand, c Campaign, tgt int) Fault {
	at := 5 * float64(1+rng.IntN(int(c.Dur/5)-2))
	win := 5 * float64(2+rng.IntN(19))
	if at+win > c.Dur {
		win = c.Dur - at
	}
	return Fault{Kind: TwoFaced, Target: tgt, At: at, Dur: win,
		Peers: randomPeers(rng, c.N, tgt)}
}

// Adversarial runs the hill-climbing search. It is deterministic in
// cfg.Seed for a deterministic cfg.Run.
func Adversarial(cfg AdversarialConfig) (AdversarialResult, error) {
	if cfg.Steps <= 0 {
		return AdversarialResult{}, fmt.Errorf("chaos: adversarial steps must be positive, got %d", cfg.Steps)
	}
	run := cfg.Run
	if run == nil {
		run = Run
	}
	cur := GenerateAdversarial(cfg.Seed)
	v, err := run(cur)
	if err != nil {
		return AdversarialResult{}, err
	}
	res := AdversarialResult{Best: cur, Verdict: v, Evals: 1}
	rng := rand.New(rand.NewPCG(cfg.Seed^0x243f6a8885a308d3, cfg.Seed*0x9e3779b97f4a7c15+1))
	for step := 0; step < cfg.Steps && res.Verdict.OK; step++ {
		cand := mutate(rng, res.Best)
		if cand.Validate() != nil {
			// A clamped mutation can still straddle a bound; skip it (the
			// step is spent, keeping the stream aligned across runs).
			continue
		}
		cv, err := run(cand)
		if err != nil {
			return res, err
		}
		res.Evals++
		if !cv.OK || cv.MinSlack < res.Verdict.MinSlack {
			res.Best, res.Verdict = cand, cv
		}
	}
	if !res.Verdict.OK {
		res.Found = true
		sr, err := Shrink(res.Best, run)
		if err != nil {
			return res, err
		}
		res.Shrunk = &sr
		res.Evals += sr.Runs
	}
	return res, nil
}

// mutate derives one candidate from the current best. Mutations preserve
// the search's regime: only two-faced faults on distinct targets, never
// more than floor((N-1)/3) of them, so the byz-containment invariant
// stays armed on every candidate.
func mutate(rng *rand.Rand, c Campaign) Campaign {
	out := c
	out.Faults = append([]Fault(nil), c.Faults...)
	budget := (c.N - 1) / 3
	switch op := rng.IntN(6); {
	case op == 0 && len(out.Faults) > 0:
		// Redraw one fault's whole offset vector.
		i := rng.IntN(len(out.Faults))
		f := out.Faults[i]
		f.Peers = randomPeers(rng, c.N, f.Target)
		out.Faults[i] = f
	case op == 1 && len(out.Faults) > 0:
		// Redraw a single destination's offset, the finest probe.
		i := rng.IntN(len(out.Faults))
		f := out.Faults[i]
		j := rng.IntN(c.N)
		if j == f.Target {
			break
		}
		peers := append([]float64(nil), f.Peers...)
		sign := 1.0
		if rng.IntN(2) == 0 {
			sign = -1
		}
		peers[j] = sign * roundParam(0.02+rng.Float64()*0.1)
		f.Peers = peers
		out.Faults[i] = f
	case op == 2 && len(out.Faults) > 0:
		// Shift the onset along the grid.
		i := rng.IntN(len(out.Faults))
		f := out.Faults[i]
		f.At = grid(f.At + float64(rng.IntN(9)-4)*5)
		if f.At < 5 {
			f.At = 5
		}
		if f.At+f.Dur > c.Dur {
			f.Dur = c.Dur - f.At
		}
		out.Faults[i] = f
	case op == 3 && len(out.Faults) > 0:
		// Resize the lying window.
		i := rng.IntN(len(out.Faults))
		f := out.Faults[i]
		f.Dur = grid(f.Dur + float64(rng.IntN(9)-4)*5)
		if f.Dur < 5 {
			f.Dur = 5
		}
		if f.At+f.Dur > c.Dur {
			f.Dur = c.Dur - f.At
		}
		out.Faults[i] = f
	case op == 4 && len(out.Faults) < budget:
		// Recruit another liar on an unused target.
		used := make(map[int]bool, len(out.Faults))
		for _, f := range out.Faults {
			used[f.Target] = true
		}
		tgt := rng.IntN(c.N)
		if used[tgt] {
			break
		}
		out.Faults = append(out.Faults, randomLiar(rng, c, tgt))
	case op == 5 && len(out.Faults) > 1:
		// Retire one liar.
		out.Faults = dropFault(out.Faults, rng.IntN(len(out.Faults)))
	}
	sortFaults(out.Faults)
	return out
}
