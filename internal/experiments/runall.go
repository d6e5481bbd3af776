package experiments

import (
	"fmt"
	"io"

	"disttime/internal/par"
)

// RunResult pairs an entry with its outcome.
type RunResult struct {
	Entry Entry
	Table Table
	Err   error
}

// RunAll executes every entry, fanning independent experiments out over
// the par worker budget, and returns the results in entry order. Each
// experiment is a pure function of its own fixed seeds, so the merged
// output is byte-identical to a sequential run: parallelism changes only
// the wall clock (par.SetLimit(1) makes it fully sequential).
func RunAll(entries []Entry) []RunResult {
	return par.Map(len(entries), func(i int) RunResult {
		tbl, err := entries[i].Run()
		return RunResult{Entry: entries[i], Table: tbl, Err: err}
	})
}

// WriteResults renders results in order, as aligned text or CSV. On the
// first failed entry it prints that entry's table and returns an error
// naming the experiment, matching the sequential driver's behavior.
func WriteResults(w io.Writer, results []RunResult, asCSV bool) error {
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintln(w, r.Table)
			return fmt.Errorf("%s (%s): %w", r.Entry.ID, r.Entry.Source, r.Err)
		}
		if asCSV {
			if err := r.Table.WriteCSV(w); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintln(w, r.Table); err != nil {
			return err
		}
	}
	return nil
}
