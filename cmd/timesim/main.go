// Command timesim runs the paper-reproduction experiments: every figure,
// theorem bound, and in-text experimental claim of Marzullo & Owicki 1983
// (the E1..E15 index in DESIGN.md).
//
// Usage:
//
//	timesim -list
//	timesim -experiment fig3
//	timesim -experiment E9
//	timesim -all                       # experiments fan out over GOMAXPROCS
//	timesim -ablations -csv            # identical output at any GOMAXPROCS
//	timesim -chaos -campaigns 60 -chaos-seed 1
//	timesim -chaos -adversarial -campaigns 50   # hill-climb Byzantine schedules
//	timesim -chaos -replay internal/chaos/corpus/buggy-mm-churn.repro
//	timesim -chaos -replay internal/chaos/corpus/demo-churn.repro   # leave/rejoin under membership
//	timesim -chaos -replay internal/chaos/corpus/demo-txn.repro     # commit-wait transactions
//	timesim -chaos -replay internal/chaos/corpus/demo-observed.repro -metrics m.json -trace-out t.jsonl
//	timesim -chaos -campaigns 60 -metrics chaos.json   # observed campaigns
//	timesim -scale                     # 10k/50k/100k sweep on the scale engine
//
// Each experiment prints the paper's claim, the measured finding, and the
// regenerated table. The exit status is nonzero when a reproduced shape
// does not hold. The -chaos mode instead runs randomized fault campaigns
// under the always-on theorem-invariant monitor (see internal/chaos),
// shrinking any failure to a one-line reproducer, or replays one such
// line: a seeded scenario, the demos included, is a corpus file. With
// -metrics and -trace-out it also writes the runs' metrics and spans.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"disttime/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "timesim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("timesim", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list the available experiments")
		name      = fs.String("experiment", "", "experiment or ablation ID or slug to run (e.g. E9, recovery, A3)")
		all       = fs.Bool("all", false, "run every paper experiment in order")
		ablations = fs.Bool("ablations", false, "run every ablation study in order")
		asCSV     = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		figures   = fs.Bool("figures", false, "render the paper's four figures as interval diagrams")
		doChaos   = fs.Bool("chaos", false, "run randomized fault campaigns under the theorem-invariant monitor")
		campaigns = fs.Int("campaigns", 60, "number of chaos campaigns to run (with -chaos)")
		chaosSeed = fs.Uint64("chaos-seed", 1, "first campaign seed (with -chaos; campaigns use consecutive seeds)")
		replay    = fs.String("replay", "", "replay a chaos reproducer: a literal line or a corpus file path (with -chaos)")
		advSearch = fs.Bool("adversarial", false, "hill-climb Byzantine fault schedules toward an invariant violation instead of sampling (with -chaos)")
		advSteps  = fs.Int("adv-steps", 20, "mutation steps per adversarial search (with -chaos -adversarial)")
		metrics   = fs.String("metrics", "", "write a deterministic metrics snapshot (JSON) of the runs to this path (with -chaos)")
		traceOut  = fs.String("trace-out", "", "write the runs' sync-round spans (JSONL) to this path (with -chaos)")
		doScale   = fs.Bool("scale", false, "run the S1 scale sweep (10k/50k/100k servers) on the scale engine")
		scaleFor  = fs.Float64("scale-until", 600, "virtual duration in seconds per scale-sweep size (with -scale)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*doChaos && (*metrics != "" || *traceOut != "") {
		return fmt.Errorf("-metrics and -trace-out observe -chaos runs: pass -chaos")
	}
	emit := func(tbl experiments.Table) error {
		if *asCSV {
			return tbl.WriteCSV(out)
		}
		_, err := fmt.Fprintln(out, tbl)
		return err
	}

	switch {
	case *doChaos:
		return runChaos(chaosOpts{
			campaigns:   *campaigns,
			seed:        *chaosSeed,
			replay:      *replay,
			metrics:     *metrics,
			traceOut:    *traceOut,
			adversarial: *advSearch,
			advSteps:    *advSteps,
		}, out)
	case *doScale:
		tbl, err := experiments.ScaleSweep(experiments.ScaleConfig{Until: *scaleFor})
		if err != nil {
			fmt.Fprintln(out, tbl)
			return fmt.Errorf("scale sweep: %w", err)
		}
		return emit(tbl)
	case *figures:
		figs, err := experiments.Figures()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, figs)
		return err
	case *list:
		fmt.Fprintf(out, "%-4s  %-22s  %s\n", "ID", "SLUG", "SOURCE")
		for _, e := range experiments.Registry() {
			fmt.Fprintf(out, "%-4s  %-22s  %s\n", e.ID, e.Slug, e.Source)
		}
		return nil
	case *ablations:
		return experiments.WriteResults(out,
			experiments.RunAll(experiments.Ablations()), *asCSV)
	case *all:
		return experiments.WriteResults(out,
			experiments.RunAll(experiments.All()), *asCSV)
	case *name != "":
		e, ok := experiments.FindAny(*name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *name)
		}
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintln(out, tbl)
			return fmt.Errorf("%s (%s): %w", e.ID, e.Source, err)
		}
		return emit(tbl)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -all, -ablations, -figures, -experiment, or -chaos")
	}
}
