package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	better     = "better"
	within     = "within bound"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares the new value with the old one. change is the share
// of the old value by which the metric got worse (negative when it
// improved). A change past the bound is worse, or better; but when
// either side's own trials spread wider than the bound, quartile to
// quartile, one value from each side cannot carry that, and the verdict is
// unresolved unless every trial of one side beats every trial of the
// other.
func verdict(d metricDef, old, new stat) (change float64, v string) {
	if old.Value <= 0 {
		return 0, unresolved
	}
	change = (new.Value - old.Value) / old.Value
	newBeatsOld, oldBeatsNew := new.Max < old.Min, old.Max < new.Min
	if d.Better == higher {
		change = -change
		newBeatsOld, oldBeatsNew = new.Min > old.Max, old.Min > new.Max
	}
	spread := func(s stat) float64 { return (s.Q3 - s.Q1) / s.Value }
	wide := spread(old) > d.Bound || spread(new) > d.Bound
	switch {
	case change > d.Bound && (!wide || oldBeatsNew):
		return change, worse
	case change < -d.Bound && (!wide || newBeatsOld):
		return change, better
	case wide:
		return change, unresolved
	}
	return change, within
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per workload and end-to-end metric, the old and
// new values, their ratio with its base, and the verdict. It returns
// an error, and so a nonzero exit, when any metric is worse.
func compareFiles(oldPath, newPath string, out io.Writer) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	if old.Machine != cur.Machine {
		fmt.Fprintf(out, "note: the two results differ in machine, toolchain or commit:\n  old %+v\n  new %+v\n", old.Machine, cur.Machine)
	}
	fmt.Fprintf(out, "%-16s %-11s %14s %14s %16s  %s\n", "workload", "metric", "old", "new", "new/old", "verdict")
	bad := 0
	for _, w := range workloads {
		o, okOld := old.Workloads[w.name]["end_to_end"]
		n, okNew := cur.Workloads[w.name]["end_to_end"]
		if !okOld || !okNew {
			continue
		}
		for _, d := range endToEnd {
			change, v := verdict(d, o.EndToEnd[d.Name], n.EndToEnd[d.Name])
			if v == worse {
				bad++
			}
			how := "worse"
			if change < 0 {
				how, change = "better", -change
			}
			fmt.Fprintf(out, "%-16s %-11s %14.6g %14.6g %8.3f of %-6.4g  %s (%.1f%% %s, bound %.0f%%)\n",
				w.name, d.Name, o.EndToEnd[d.Name].Value, n.EndToEnd[d.Name].Value,
				ratio(n.EndToEnd[d.Name].Value, o.EndToEnd[d.Name].Value), o.EndToEnd[d.Name].Value,
				v, 100*change, how, 100*d.Bound)
		}
		if n.Failed > o.Failed {
			bad++
			fmt.Fprintf(out, "%-16s %-11s %14d %14d %26s (more operations failed)\n", w.name, "failed", o.Failed, n.Failed, worse)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics got worse by more than their bound", bad)
	}
	return nil
}
