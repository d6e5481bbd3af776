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
//	timesim -txn -txn-seed 7           # commit-wait transaction timeline demo
//	timesim -churn 2 -churn-seed 7     # dynamic-membership timeline demo
//	timesim -metrics out.json -trace-out spans.jsonl   # instrumented demo run
//	timesim -chaos -campaigns 60 -metrics chaos.json   # observed campaigns
//	timesim -scale                     # 10k/50k/100k sweep on the scale engine
//
// Each experiment prints the paper's claim, the measured finding, and the
// regenerated table. The exit status is nonzero when a reproduced shape
// does not hold. The -chaos mode instead runs randomized fault campaigns
// under the always-on theorem-invariant monitor (see internal/chaos),
// shrinking any failure to a one-line reproducer.
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
		doTxn     = fs.Bool("txn", false, "run the commit-wait transaction demo: HLC-stamped transactions with external-consistency checking; prints the deterministic commit timeline")
		txnSeed   = fs.Uint64("txn-seed", 1, "seed of the txn demo (with -txn); equal seeds give byte-identical timelines")
		churnRate = fs.Float64("churn", 0, "run the dynamic-membership demo: voluntary leave/rejoin cycles per 100 simulated seconds; prints the deterministic membership timeline")
		churnSeed = fs.Uint64("churn-seed", 1, "seed of the churn demo (with -churn); equal seeds give byte-identical timelines")
		metrics   = fs.String("metrics", "", "write a deterministic metrics snapshot (JSON) to this path; alone it runs the instrumented demo scenario, with -chaos it observes the campaigns")
		traceOut  = fs.String("trace-out", "", "write sync-round spans (JSONL) to this path; runs the instrumented demo scenario")
		doScale   = fs.Bool("scale", false, "run the S1 scale sweep (10k/50k/100k servers) on the scale engine")
		scaleFor  = fs.Float64("scale-until", 600, "virtual duration in seconds per scale-sweep size (with -scale)")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
			adversarial: *advSearch,
			advSteps:    *advSteps,
		}, out)
	case *doTxn:
		return runTxn(*txnSeed, *metrics, out)
	case *churnRate > 0:
		return runChurn(*churnRate, *churnSeed, *metrics, out)
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
	case *metrics != "" || *traceOut != "":
		return runObserved(*metrics, *traceOut, out)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -all, -ablations, -figures, -experiment, or -chaos")
	}
}
