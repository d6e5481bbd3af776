package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// env is what a run is asked to do.
type env struct {
	seed    uint64
	seconds float64 // how long the timed trials of one pass measure
	smoke   bool    // toy sizes: checks the harness, measures nothing
}

// workload is one set of inputs. body runs its set-ups and trials on p.
type workload struct {
	name string
	why  string
	body func(p *pass) error
}

// trial is one timed repetition of a workload.
type trial struct {
	ops      float64 // requests, sync rounds or simulator events done
	wall     float64 // seconds
	p50, p99 float64 // seconds, of one operation
	e        float64 // seconds: the error bound a client, or the mean server, is left with
}

// pass is one workload measured once: end to end (rec == nil) or traced.
type pass struct {
	env
	name string
	rec  *recorder
	root int

	setups            []float64 // seconds, one per set-up
	trials            []trial
	plain             trial // traced pass: the untraced trial overhead is read against
	attempted, failed uint64
	broken            []string           // failed correctness checks: fatal
	layer             map[string]float64 // per-layer metrics, traced pass
	info              map[string]string  // fingerprints and sizes, for result.json
}

func (p *pass) traced() bool { return p.rec != nil }

// keep files a finished trial: among the measured ones, or, in a traced
// pass, as the untraced one the traced trial is read against.
func (p *pass) keep(t trial, plain bool) {
	if plain {
		p.plain = t
	} else {
		p.trials = append(p.trials, t)
	}
}

// check counts one correctness check; a false one fails the run.
func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.broken = append(p.broken, fmt.Sprintf(format, args...))
	}
}

// more reports whether a fixed-work workload should start another
// trial: at least min, then until the pass has measured for seconds.
func (p *pass) more(min int) bool {
	if p.smoke {
		return len(p.trials) < 2
	}
	if len(p.trials) < min {
		return true
	}
	var measured float64
	for _, t := range p.trials {
		measured += t.wall
	}
	return measured+measured/float64(len(p.trials)) <= p.seconds
}

// setupSamples times fn (one set-up and tear-down) until there are
// enough samples for a median that holds still: 61, or as many as fit
// in a second and a half when one set-up is slow, and never under three.
func (p *pass) setupSamples(fn func() error) error {
	sp := p.rec.begin(p.root, "setup")
	defer p.rec.end(sp)
	want, budget := 61, 1500*time.Millisecond
	if p.smoke {
		want = 2
	}
	start := time.Now()
	for i := 0; i < want; i++ {
		if i >= 3 && time.Since(start) > budget {
			break
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	return nil
}

// endToEndValues folds the trials into the end-to-end metrics.
// ops_per_s is that of the best trial. On a shared host a neighbour on
// the sibling hyperthread or in the cache takes time away from a trial
// and nothing gives any back: trials scatter below a ceiling, the
// ceiling is what the program does, and between runs of the same code
// it moved half as far as the median of the trials did (README.md,
// Estimator). e_us does not depend on the host's speed and the contract
// wants the median set-up.
func (p *pass) endToEndValues() map[string]stat {
	col := func(f func(trial) float64) []float64 {
		out := make([]float64, len(p.trials))
		for i, t := range p.trials {
			out[i] = f(t)
		}
		return out
	}
	ops := newStat(col(func(t trial) float64 { return t.ops / t.wall }))
	ops.Value = ops.Max
	return map[string]stat{
		"ops_per_s": ops,
		"e_us":      newStat(col(func(t trial) float64 { return t.e * 1e6 })),
		"setup_s":   newStat(p.setups),
	}
}

// stat is a reported value with the spread of the samples it was taken
// from: their median, quartiles and extremes.
type stat struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// newStat reports the median of samples.
func newStat(samples []float64) stat {
	lo, hi := minMax(samples)
	m := median(samples)
	return stat{
		Value: m, Median: m, Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75),
		Min: lo, Max: hi, N: len(samples),
	}
}

// procStats is the process's resource use between two readings.
type procStats struct {
	cpu     float64 // user + system seconds
	mallocs uint64
	gcs     uint32
	at      time.Time
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a failed read leaves cpu at 0, which shows
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procStats{cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, gcs: ms.NumGC, at: time.Now()}
}

// procLayer records what the process spent on ops operations since
// before: cores busy, allocations per operation, GC cycles, wall time.
func (p *pass) procLayer(before procStats, ops float64) {
	after := readProc()
	wall := after.at.Sub(before.at).Seconds()
	p.layer["proc.wall_s"] = wall
	p.layer["proc.cpu_util"] = (after.cpu - before.cpu) / wall
	p.layer["proc.allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	p.layer["proc.gc_cycles"] = float64(after.gcs - before.gcs)
}

// liveHeapMB is the heap still in use after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
