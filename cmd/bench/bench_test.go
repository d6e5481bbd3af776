package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disttime/internal/obs"
)

// TestBucketQuantile checks the interpolated quantile against the exact
// one on log-normal "latencies": it must land within 2 %, where the
// bucket's upper bound alone is up to 12 % off.
func TestBucketQuantile(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := obs.NewRegistry().LogHistogram("h")
	samples := make([]float64, 200000)
	for i := range samples {
		samples[i] = 100e-6 * math.Exp(0.4*rng.NormFloat64())
		h.Observe(samples[i])
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := quantile(samples, q)
		got := bucketQuantile(h.Buckets(), q)
		if rel := math.Abs(got-exact) / exact; rel > 0.02 {
			t.Errorf("q%v: interpolated %v, exact %v: %.1f%% apart", q, got, exact, 100*rel)
		}
		if ub := h.Quantile(q); got > ub {
			t.Errorf("q%v: interpolated %v lies above its bucket's upper bound %v", q, got, ub)
		}
	}
	if got := bucketQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
}

// TestLogBucketLower pins the bucket geometry the interpolation assumes
// to the histogram's own: a value's bucket must contain the value.
func TestLogBucketLower(t *testing.T) {
	for _, v := range []float64{1e-9, 3.3e-6, 1e-4, 0.5, 0.99, 1, 1.01, 7, 1e3} {
		h := obs.NewRegistry().LogHistogram("h")
		h.Observe(v)
		ub := h.Buckets()[0].UpperBound
		if lo := logBucketLower(ub); !(lo <= v && v < ub) {
			t.Errorf("%v fell into a bucket computed as [%v, %v)", v, lo, ub)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "workload", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "trial", StartNs: 10, EndNs: 90},
		{ID: 3, Parent: 2, Name: "QueryMany", StartNs: 10, EndNs: 60},
		{ID: 4, Parent: 2, Name: "SyncIM", StartNs: 60, EndNs: 70},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 20, 3: 50, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	if mean, n := meanSpanSeconds(spans, "SyncIM"); n != 1 || mean != 10e-9 {
		t.Errorf("meanSpanSeconds(SyncIM) = %v, %d", mean, n)
	}
}

// TestBestTrial: ops_per_s is the best trial's, with the median beside
// it; e_us is the median.
func TestBestTrial(t *testing.T) {
	p := &pass{setups: []float64{1}}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		p.trials = append(p.trials, trial{ops: v, wall: 1, e: v})
	}
	got := p.endToEndValues()
	if s := got["ops_per_s"]; s.Value != 5 || s.Median != 3 || s.N != 5 {
		t.Errorf("ops_per_s: %+v, want the best trial 5 beside the median 3", s)
	}
	if s := got["e_us"]; s.Value != 3e6 {
		t.Errorf("e_us: %+v, want the median", s)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "setup_s", Better: lower, Bound: 0.10}
	ops := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	tight := func(v float64) stat {
		return stat{Value: v, Q1: v * 0.995, Q3: v * 1.005, Min: v * 0.99, Max: v * 1.01, N: 5}
	}
	loose := func(v float64) stat {
		return stat{Value: v, Q1: v * 0.9, Q3: v * 1.1, Min: v * 0.8, Max: v * 1.2, N: 5}
	}
	for _, c := range []struct {
		d        metricDef
		old, new stat
		want     string
	}{
		{lat, tight(100), tight(105), within},
		{lat, tight(100), tight(120), worse},
		{lat, tight(100), tight(80), better},
		{ops, tight(100), tight(80), worse},
		{ops, tight(100), tight(120), better},
		{ops, tight(100), tight(95), within},
		{lat, loose(100), tight(103), unresolved},
		{lat, loose(100), loose(125), unresolved}, // trials overlap: the medians prove nothing
		{lat, loose(100), tight(200), worse},      // every new trial is slower than every old one
		{ops, loose(100), tight(200), better},
	} {
		if _, got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.old, c.new, got, c.want)
		}
	}
}

// TestCompareExit writes two results and checks that a regression makes
// -compare fail, and only a regression.
func TestCompareExit(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		e2e := make(map[string]stat)
		for _, d := range endToEnd {
			e2e[d.Name] = newStat([]float64{10, 10, 10})
		}
		e2e["ops_per_s"] = newStat([]float64{ops, ops, ops})
		r := result{Workloads: map[string]map[string]passResult{
			"sim_mesh_32": {"end_to_end": {Correct: true, EndToEnd: e2e}},
		}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 1000), write("same.json", 990), write("slow.json", 700)
	var out bytes.Buffer
	if err := run([]string{"-compare", base, same}, &out); err != nil {
		t.Errorf("1%% slower failed the gate: %v\n%s", err, out.String())
	}
	if err := run([]string{"-compare", base, slow}, &out); err == nil {
		t.Errorf("30%% slower passed the gate:\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the benchmark %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs both passes of all six workloads at toy sizes, so that
// an API change which breaks the harness fails `go test ./...`. It
// checks the shape of what comes out, not the numbers.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	outPath, spansPath := filepath.Join(dir, "result.json"), filepath.Join(dir, "spans.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-seed", "3", "-out", outPath, "-spans", spansPath}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	res, err := readResult(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumCPU == 0 || res.Machine.GoVersion == "" || res.Seed != 3 {
		t.Errorf("machine and inputs not recorded: %+v seed %d", res.Machine, res.Seed)
	}
	for _, w := range workloads {
		e2e, traced := res.Workloads[w.name]["end_to_end"], res.Workloads[w.name]["traced"]
		if !e2e.Correct || !traced.Correct || e2e.Failed+traced.Failed != 0 {
			t.Errorf("%s: failed operations or checks: %+v %+v", w.name, e2e, traced)
		}
		for _, d := range endToEnd {
			if s := e2e.EndToEnd[d.Name]; !(s.Value > 0) || math.IsInf(s.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, d.Name, s.Value)
			}
		}
		if len(traced.PerLayer) < 10 {
			t.Errorf("%s: only %d per-layer metrics", w.name, len(traced.PerLayer))
		}
		for name := range traced.PerLayer {
			known := false
			for _, d := range perLayer {
				known = known || d.Name == name
			}
			if !known {
				t.Errorf("%s reports %q, which the metric table does not list", w.name, name)
			}
		}
	}

	// Every span but a workload's root has a parent in the same workload.
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		workload string
		id       int
	}
	seen := make(map[key]bool)
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		seen[key{s.Workload, s.ID}] = true
		all = append(all, s)
	}
	roots := 0
	for _, s := range all {
		switch {
		case s.Parent == 0:
			roots++
		case !seen[key{s.Workload, s.Parent}]:
			t.Errorf("span %d (%s) of %s has no parent %d", s.ID, s.Name, s.Workload, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) of %s ends before it starts", s.ID, s.Name, s.Workload)
		}
	}
	if roots != len(workloads) {
		t.Errorf("%d root spans, want one per workload (%d)", roots, len(workloads))
	}
}

// TestContractLine checks the last line of a single-pass run: exactly
// the keys the contract names, every metric of the pass and no other.
func TestContractLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var out bytes.Buffer
		args := []string{"-smoke", "-workload", "sim_mesh_32", "-seed", "1", "-seconds", "1", "-trace", []string{"0", "1"}[trace]}
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Errorf("trace %d: keys of the result line: %v", trace, line)
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s: %+v", trace, d.Name, m)
			}
		}
	}
}

// TestBrokenCheckFails drives a failed correctness check through run:
// the result must say so and the exit must be nonzero.
func TestBrokenCheckFails(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{{"broken", "a check that fails", func(p *pass) error {
		p.setups = []float64{1}
		p.trials = []trial{{ops: 1, wall: 1, p50: 1, p99: 1, e: 1}}
		p.check(false, "the interval lost the true time")
		return nil
	}}}
	var out bytes.Buffer
	err := run([]string{"-workload", "broken", "-trace", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "the interval lost the true time") {
		t.Errorf("a failed check did not fail the run: %v", err)
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), `"failed":1`) {
		t.Errorf("the result line hides the failed check:\n%s", out.String())
	}
}
