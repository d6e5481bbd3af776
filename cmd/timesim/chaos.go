package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"disttime/internal/chaos"
	"disttime/internal/obs"
)

// chaosOpts carries the chaos-mode flags.
type chaosOpts struct {
	campaigns   int
	seed        uint64
	replay      string
	metrics     string // when set, runs are observed and a snapshot is written here
	traceOut    string // when set, runs are traced and their spans written here
	adversarial bool   // hill-climb fault schedules toward a violation instead of sampling
	advSteps    int    // mutation steps per adversarial search
}

// runChaos executes a batch of generated campaigns (or adversarial
// searches, or replays one reproducer) and reports one line per
// campaign. The output is a pure function of the flags: campaigns are
// generated from consecutive seeds and every run is deterministic, so two
// invocations with the same flags print identical bytes. The returned
// error is non-nil when any campaign failed, which makes the exit status
// the CI signal.
//
// With -metrics and -trace-out, every observed run feeds one shared
// registry and one span log, written whatever the verdict. Observation
// is passive, so verdicts, step counts and stdout match an unobserved
// run's.
func runChaos(opts chaosOpts, out io.Writer) error {
	if opts.replay == "" && opts.campaigns <= 0 {
		return fmt.Errorf("chaos: -campaigns must be positive, got %d", opts.campaigns)
	}
	var reg *obs.Registry
	if opts.metrics != "" {
		reg = obs.NewRegistry()
	}
	tr, finishTrace, err := openTracer(opts.traceOut)
	if err != nil {
		return err
	}
	runOne := func(c chaos.Campaign) (chaos.Verdict, error) { return chaos.RunObserved(c, reg, tr) }
	switch {
	case opts.replay != "":
		err = replayReproducer(opts.replay, runOne, out)
	case opts.adversarial:
		err = runAdversarial(opts, runOne, out)
	default:
		err = runCampaigns(opts, runOne, out)
	}
	if werr := writeMetrics(opts.metrics, reg); werr != nil {
		err = werr
	}
	if terr := finishTrace(); terr != nil {
		err = terr
	}
	return err
}

// runCampaigns runs opts.campaigns generated campaigns from consecutive
// seeds, shrinking each failure to a reproducer.
func runCampaigns(opts chaosOpts, runOne chaos.Runner, out io.Writer) error {
	failed := 0
	for i := 0; i < opts.campaigns; i++ {
		seed := opts.seed + uint64(i)
		c := chaos.Generate(seed)
		v, err := runOne(c)
		if err != nil {
			return fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
		if v.OK {
			fmt.Fprintf(out, "campaign seed=%d n=%d fn=%s topo=%s faults=%d verdict=ok steps=%d\n",
				seed, c.N, c.FnName, c.Topo, len(c.Faults), v.Steps)
			continue
		}
		failed++
		first, _ := v.First()
		fmt.Fprintf(out, "campaign seed=%d n=%d fn=%s topo=%s faults=%d verdict=FAIL steps=%d\n",
			seed, c.N, c.FnName, c.Topo, len(c.Faults), v.Steps)
		fmt.Fprintf(out, "  violation: %v\n", first)
		res, err := chaos.Shrink(c, chaos.Run)
		if err != nil {
			return fmt.Errorf("chaos: seed %d: shrink: %w", seed, err)
		}
		fmt.Fprintf(out, "  reproducer (%d faults, %d shrink runs): %s\n",
			len(res.Campaign.Faults), res.Runs, res.Campaign)
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d of %d campaigns violated an invariant", failed, opts.campaigns)
	}
	fmt.Fprintf(out, "chaos: %d campaigns ok\n", opts.campaigns)
	return nil
}

// runAdversarial runs a batch of seeded hill-climbing searches (see
// chaos.Adversarial): each starts from a within-budget Byzantine
// campaign and mutates the schedule toward the monitor's tightest
// containment margin. Output is one line per search plus the minimized
// reproducer on failure, and is byte-identical across invocations with
// equal flags.
func runAdversarial(opts chaosOpts, runOne chaos.Runner, out io.Writer) error {
	failed := 0
	for i := 0; i < opts.campaigns; i++ {
		seed := opts.seed + uint64(i)
		res, err := chaos.Adversarial(chaos.AdversarialConfig{
			Seed:  seed,
			Steps: opts.advSteps,
			Run:   runOne,
		})
		if err != nil {
			return fmt.Errorf("chaos: adversarial seed %d: %w", seed, err)
		}
		if !res.Found {
			fmt.Fprintf(out, "adversarial seed=%d n=%d evals=%d verdict=ok minslack=%.6g\n",
				seed, res.Best.N, res.Evals, res.Verdict.MinSlack)
			continue
		}
		failed++
		first, _ := res.Verdict.First()
		fmt.Fprintf(out, "adversarial seed=%d n=%d evals=%d verdict=FAIL\n", seed, res.Best.N, res.Evals)
		fmt.Fprintf(out, "  violation: %v\n", first)
		if res.Shrunk != nil {
			fmt.Fprintf(out, "  reproducer (%d faults, %d shrink runs): %s\n",
				len(res.Shrunk.Campaign.Faults), res.Shrunk.Runs, res.Shrunk.Campaign)
		} else {
			fmt.Fprintf(out, "  reproducer: %s\n", res.Best)
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d of %d adversarial searches found a violation", failed, opts.campaigns)
	}
	fmt.Fprintf(out, "chaos: %d adversarial searches ok\n", opts.campaigns)
	return nil
}

// replayReproducer re-executes one reproducer, given either as a literal
// line or as a path to a corpus file ('#'-comment lines are skipped). The
// campaign is run twice, observed through runOne and then plain, and the
// step counts compared, so a replay also re-proves determinism.
func replayReproducer(arg string, runOne chaos.Runner, out io.Writer) error {
	line := arg
	if data, err := os.ReadFile(arg); err == nil {
		line = ""
		for _, l := range strings.Split(string(data), "\n") {
			l = strings.TrimSpace(l)
			if l != "" && !strings.HasPrefix(l, "#") {
				line = l
			}
		}
		if line == "" {
			return fmt.Errorf("chaos: %s holds no reproducer line", arg)
		}
	}
	c, err := chaos.Parse(line)
	if err != nil {
		return err
	}
	v, err := runOne(c)
	if err != nil {
		return err
	}
	again, err := chaos.Run(c)
	if err != nil {
		return err
	}
	if again.Steps != v.Steps || again.OK != v.OK {
		return fmt.Errorf("chaos: replay is not deterministic (steps %d vs %d)", v.Steps, again.Steps)
	}
	if v.OK {
		fmt.Fprintf(out, "replay seed=%d verdict=ok steps=%d\n", c.Seed, v.Steps)
		return nil
	}
	fmt.Fprintf(out, "replay seed=%d verdict=FAIL steps=%d\n", c.Seed, v.Steps)
	for _, viol := range v.Violations {
		fmt.Fprintf(out, "  violation: %v\n", viol)
	}
	return fmt.Errorf("chaos: reproducer violated %d invariant observations", len(v.Violations))
}

// openTracer opens a span tracer writing to path, with a finish that
// closes the file and reports its first failed write or the close's
// error; an empty path yields a nil (discarding) tracer.
func openTracer(path string) (*obs.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	tr := obs.NewTracer(f)
	return tr, func() error {
		if err := errors.Join(tr.Err(), f.Close()); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		return nil
	}, nil
}

// writeMetrics snapshots reg to path as JSON; an empty path is a no-op.
func writeMetrics(path string, reg *obs.Registry) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return f.Close()
}
