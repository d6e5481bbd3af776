package experiments

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"disttime/internal/par"
)

// renderCSV runs entries under a worker budget of workers and renders
// the ordered results as one CSV stream.
func renderCSV(t *testing.T, entries []Entry, workers int) []byte {
	t.Helper()
	defer par.SetLimit(par.SetLimit(workers))
	var buf bytes.Buffer
	if err := WriteResults(&buf, RunAll(entries), true); err != nil {
		t.Fatalf("RunAll(workers=%d): %v", workers, err)
	}
	return buf.Bytes()
}

// TestRunAllDeterministic asserts the tentpole guarantee of the parallel
// runner: for every registered experiment and ablation, the CSV rendered
// from a parallel run is byte-identical to the sequential run. Each
// experiment seeds its own simulators, so parallelism may only change the
// wall clock, never a byte of output.
func TestRunAllDeterministic(t *testing.T) {
	entries := append(All(), Ablations()...)
	seq := renderCSV(t, entries, 1)
	workers := runtime.GOMAXPROCS(0) + 2 // oversubscribe: exercises inline fallback
	parOut := renderCSV(t, entries, workers)
	if !bytes.Equal(seq, parOut) {
		t.Fatalf("workers=%d output differs from sequential run\nseq %d bytes, par %d bytes",
			workers, len(seq), len(parOut))
	}
	if len(seq) == 0 {
		t.Fatal("experiments produced no CSV output")
	}
}

// TestRunAllRestoresLimit checks that RunAll runs under the worker budget
// it finds and leaves it as it was.
func TestRunAllRestoresLimit(t *testing.T) {
	prev := par.SetLimit(3)
	RunAll(All()[:1])
	if got := par.SetLimit(prev); got != 3 {
		t.Fatalf("worker budget = %d after RunAll, want 3", got)
	}
}

// TestRunAllSpeedup measures the wall-clock benefit of the parallel
// runner. It is only meaningful on a machine with real parallelism, so it
// skips below 4 cores (CI containers are often single-core).
func TestRunAllSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("need >= 4 cores for a meaningful speedup measurement, have %d", n)
	}
	entries := All()
	prev := par.SetLimit(1)
	start := time.Now()
	RunAll(entries)
	seqDur := time.Since(start)
	par.SetLimit(runtime.GOMAXPROCS(0))
	start = time.Now()
	RunAll(entries)
	parDur := time.Since(start)
	par.SetLimit(prev)
	t.Logf("sequential %v, parallel %v (%.2fx)", seqDur, parDur, float64(seqDur)/float64(parDur))
	if parDur > seqDur {
		t.Errorf("parallel run slower than sequential: %v > %v", parDur, seqDur)
	}
}
