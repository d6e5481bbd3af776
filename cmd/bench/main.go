// Command bench is the repository's benchmark: six workloads over the
// three things a user of the time service pays for — requests answered
// through a real socket, a synchronization round against live servers,
// and the simulators that check the paper's theorems — measured end to
// end with tracing off, then layer by layer in a traced pass. README.md
// in this directory is the glossary and the interaction table.
//
// Usage:
//
//	bench [-seed N] [-seconds S] [-out result.json] [-spans spans.jsonl]
//	bench -workload NAME -seed N -seconds S -trace 0|1
//	bench -compare old.json new.json
//
// Without -workload every workload runs both passes. With it, one pass
// of one workload runs and the last line of standard output is the
// result object BENCHMARK.json's contract asks for. A failed
// correctness check makes the exit code nonzero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"disttime/internal/scale"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// workloads is the fixed set; README.md says why each is there.
var workloads = []workload{
	{"udp_batched_w64", "recvmmsg/sendmmsg, GSO, TickCache and the noalloc responder under 64 closed-loop clients",
		udpW64(true)},
	{"udp_classic_w64", "per-packet I/O and a clock read per request under the same 64 clients: batch-path changes must not move it",
		udpW64(false)},
	{"udp_sync_v3", "the paper's operation on real sockets: wire v3, HLC, a socket per query, SyncIM; low-load latency, not capacity",
		udpSyncV3},
	{"sim_scale_100k", "scale.Engine on sim/shard at 100 000 servers, where the state no longer fits the caches",
		simScale(scaleSize{scale.Topology{Regions: 20, Clusters: 100, Members: 50}, 300, 1})},
	{"sim_scale_10k", "the same engine and the same event count on a tenth of the state: a footprint fix shows on 100k and not here",
		simScale(scaleSize{scale.Topology{Regions: 10, Clusters: 20, Members: 50}, 3000, 10})},
	{"sim_mesh_32", "core.Server, internal/sim and simnet: the other copy of the rules and of the kernel, and where E growth is read",
		simMesh},
}

// passResult is one pass of one workload as result.json keeps it.
type passResult struct {
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Broken    []string           `json:"failed_checks,omitempty"`
	Trials    int                `json:"trials"`
	EndToEnd  map[string]stat    `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfS     map[string]float64 `json:"span_self_seconds,omitempty"` // by span name
	Info      map[string]string  `json:"info,omitempty"`
}

// result is result.json: the machine, the inputs, and every workload.
type result struct {
	Machine   machine                          `json:"machine"`
	Seed      uint64                           `json:"seed"`
	Seconds   float64                          `json:"seconds"`
	Notes     []string                         `json:"notes"`
	Workloads map[string]map[string]passResult `json:"workloads"` // name -> "end_to_end" | "traced"
}

type machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

var notes = []string{
	"all UDP traffic is on the loopback interface of one process: no link rate or wire latency is measured",
	"UDP load is closed loop: a client waits for its reply before it asks again",
	"-seed roots the simulators; it has no effect on the UDP workloads, whose request IDs are random by design",
}

func thisMachine() machine {
	m := machine{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one pass of this workload and print the contract's result line")
		seed    = fs.Uint64("seed", 1, "roots the simulators' random streams")
		seconds = fs.Float64("seconds", 15, "how long the timed trials of one pass measure")
		trace   = fs.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the traced pass")
		outPath = fs.String("out", "", "write result.json here")
		spans   = fs.String("spans", "", "write the traced passes' spans here, one JSON object per line")
		smoke   = fs.Bool("smoke", false, "toy sizes: exercises every code path, measures nothing")
		compare = fs.Bool("compare", false, "compare two result.json files: bench -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result.json files: old new")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), out)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds %v: must be positive", *seconds)
	}
	e := env{seed: *seed, seconds: *seconds, smoke: *smoke}

	var allSpans []span
	res := result{Machine: thisMachine(), Seed: e.seed, Seconds: e.seconds, Notes: notes,
		Workloads: make(map[string]map[string]passResult)}
	var failed []string
	var last passResult
	ran := false
	for _, w := range workloads {
		if *name != "" && w.name != *name {
			continue
		}
		ran = true
		res.Workloads[w.name] = make(map[string]passResult)
		for t := 0; t <= 1; t++ {
			if *name != "" && t != *trace {
				continue
			}
			pr, sp, err := runPass(w, e, t == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if *spans != "" {
				allSpans = append(allSpans, sp...)
			}
			kind := [2]string{"end_to_end", "traced"}[t]
			res.Workloads[w.name][kind] = pr
			printPass(out, w.name, kind, pr)
			for _, b := range pr.Broken {
				failed = append(failed, w.name+": "+b)
			}
			last = pr
		}
	}
	if !ran {
		return fmt.Errorf("no workload %q", *name)
	}

	if *outPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *spans != "" {
		if err := writeSpans(*spans, allSpans); err != nil {
			return err
		}
	}
	if *name != "" {
		if err := printContractLine(out, last, *trace == 1); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d correctness checks failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// runPass measures one workload once, traced or not.
func runPass(w workload, e env, traced bool) (passResult, []span, error) {
	p := &pass{env: e, name: w.name, layer: make(map[string]float64), info: make(map[string]string)}
	if traced {
		p.rec = newRecorder(w.name)
		p.root = p.rec.begin(0, w.name)
	}
	if err := w.body(p); err != nil {
		return passResult{}, nil, err
	}
	pr := passResult{
		Correct: len(p.broken) == 0, Attempted: p.attempted, Failed: p.failed, Broken: p.broken,
		Trials: len(p.trials), Info: p.info,
	}
	if !traced {
		pr.EndToEnd = p.endToEndValues()
		return pr, nil, nil
	}
	p.rec.end(p.root)
	t := p.trials[len(p.trials)-1]
	p.layer["trace.overhead_pct"] = 100 * (ratio(t.wall/t.ops, p.plain.wall/p.plain.ops) - 1)
	p.layer["lat.p50_us"] = t.p50 * 1e6
	p.layer["tail.lat_p99_us"] = t.p99 * 1e6
	pr.PerLayer = p.layer
	pr.SelfS = selfSecondsByName(p.rec.spans)
	return pr, p.rec.spans, nil
}

// printPass prints every metric of the pass by name, with its unit.
func printPass(out io.Writer, name, kind string, pr passResult) {
	fmt.Fprintf(out, "%s (%s): %d trials, %d attempted, %d failed\n", name, kind, pr.Trials, pr.Attempted, pr.Failed)
	for _, d := range endToEnd {
		if s, ok := pr.EndToEnd[d.Name]; ok {
			fmt.Fprintf(out, "  %-46s %14.6g %-5s  median %.6g  quartiles %.6g .. %.6g  range %.6g .. %.6g  n %d\n",
				d.Name, s.Value, d.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
	}
	for _, d := range perLayer {
		if v, ok := pr.PerLayer[d.Name]; ok {
			fmt.Fprintf(out, "  %-46s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	names := make([]string, 0, len(pr.SelfS))
	for name := range pr.SelfS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  self time of span %-28s %14.6g s\n", name, pr.SelfS[name])
	}
}

// printContractLine prints the one JSON object the driver reads: every
// end-to-end metric after an end-to-end pass, every per-layer metric
// (0 for a layer off the workload's path) after a traced one.
func printContractLine(out io.Writer, pr passResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{pr.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{pr.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{pr.Correct, pr.Attempted, pr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
