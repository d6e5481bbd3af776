//go:build !race

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// corpusDir holds the committed chaos reproducers, one replay row each.
var corpusDir = filepath.Join("..", "..", "internal", "chaos", "corpus")

// seededRows pins the bytes of every seeded timesim invocation that no
// other test pins (-all, -ablations and -figures are EXPERIMENTS.md's
// blocks, held by TestExperimentsDocMatchesTree). Each row runs twice
// in-process, under the test its test field names. The two runs must
// agree byte for byte, stdout and written files alike, and match want:
// the SHA-256 prefixes of stdout and then of each file, in argument
// order. A digest that moves is a change of behaviour to justify and
// re-pin, never a refactoring; the failure prints the row's new want, so
// the re-pin is a one-line diff of this table.
//
// A re-pin must not bless a broken run, so each row keeps its semantic
// checks too: run returns nil (every campaign, search and replay met its
// expectation), and each string of has appears in the row's output. Like
// TestExperimentsDocMatchesTree these tests are not built under the race
// detector, which stretches their 0.4 s to 6 s.
var seededRows = []seededRow{
	{"TestSeededOutputsPinned", "-experiment S1", "be660af237101ba1", []string{"S1:", "found: skew grows with network distance"}},
	{"TestRunChaosBatch", "-chaos -campaigns 60 -chaos-seed 1", "c4cc13590e8eeaf1", []string{"chaos: 60 campaigns ok"}},
	{"TestChaosMetricsPassive", "-chaos -campaigns 60 -chaos-seed 1 -metrics m.json", "c4cc13590e8eeaf1 081916339e76b76e", []string{"chaos_campaigns_total", "chaos_invariant_checks_total"}},
	{"TestSeededOutputsPinned", "-chaos -adversarial -campaigns 10 -adv-steps 15 -chaos-seed 1", "453eb07fe73e5082", []string{"chaos: 10 adversarial searches ok"}},
	{"TestChaosMetricsPassive", "-chaos -replay demo-churn.repro -metrics m.json", "90ebc5e3891b29cc 0920373c2a082360", []string{
		"replay seed=7 verdict=ok", "chaos_fault_activations_churn_total",
		"\"service_member_false_evictions_total\",\n      \"value\": 0\n",
	}},
	{"TestChaosMetricsPassive", "-chaos -replay demo-observed.repro -metrics m.json -trace-out t.jsonl", "c776019a1e2541d9 77b0de1db32a33e1 78db677df9143b27", []string{
		"service_sync_rounds_total", "sim_events_executed_total",
		"simnet_messages_delivered_total", "simnet_delay_seconds", "service_error_after_seconds",
		`{"span":"sync_round"`, `"rule":"MM-2"`, `"before":{"c":`,
		"service_rate_fallbacks_total", "service_aging_rate", `"rate":{"steered":false`,
	}},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-anchor.repro", "6e69debd8480b06c", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-byz-twoface.repro", "f22bc2112e158aa7", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-commit-wait.repro", "8d2840db690311ec", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-mm-bare.repro", "1aad90fc4a8833e4", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-mm-churn.repro", "cefe8d86e7d9c811", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-mm-crash.repro", "35bf4905814474c4", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-slew.repro", "b9080e5cad985665", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay demo-churn.repro", "90ebc5e3891b29cc", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay demo-observed.repro", "c776019a1e2541d9", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay demo-txn.repro", "4e4889e4b9879901", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay falseticker-star.repro", "be6fb5edf2f50db0", nil},
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay kitchen-sink-im.repro", "80e5f63bd5a8e0ef", nil},
}

type seededRow struct {
	test string
	args string
	want string
	has  []string
}

// TestSeededOutputsPinned runs its own rows of seededRows and checks the
// table as a whole: every row names one of the tests below, and no two
// rows pin the same stdout unless they differ only by observation flags.
// Since every row's run must match its pin, that last check holds of the
// outputs too.
func TestSeededOutputsPinned(t *testing.T) {
	pinSeeded(t)
	printed := make(map[string]string) // pinned stdout digest -> its row
	for _, r := range seededRows {
		switch r.test {
		case "TestSeededOutputsPinned", "TestRunChaosBatch", "TestChaosMetricsPassive",
			"TestRunChaosReplayCorpusFiles":
		default:
			t.Errorf("timesim %s: no test named %s runs it", r.args, r.test)
		}
		stdout, _, _ := strings.Cut(r.want, " ")
		if unobserved(r.args) != r.args {
			continue // TestChaosMetricsPassive checks it
		}
		if prev, dup := printed[stdout]; dup {
			t.Errorf("timesim %s prints what timesim %s does", r.args, prev)
		}
		printed[stdout] = r.args
	}
}

func TestRunChaosBatch(t *testing.T) { pinSeeded(t) }

// TestChaosMetricsPassive: each row with -metrics or -trace-out prints
// what the row without them does, so observation is passive.
func TestChaosMetricsPassive(t *testing.T) {
	pinSeeded(t)
	pinned := make(map[string]string) // args -> pinned stdout digest
	for _, r := range seededRows {
		pinned[r.args], _, _ = strings.Cut(r.want, " ")
	}
	for _, r := range seededRows {
		if plain := unobserved(r.args); plain != r.args && pinned[r.args] != pinned[plain] {
			t.Errorf("timesim %s: observing changed what timesim %s prints", r.args, plain)
		}
	}
}

// unobserved returns the arguments of line without its -metrics and
// -trace-out flags and their values.
func unobserved(line string) string {
	var kept []string
	args := strings.Fields(line)
	for i := 0; i < len(args); i++ {
		if args[i] == "-metrics" || args[i] == "-trace-out" {
			i++
			continue
		}
		kept = append(kept, args[i])
	}
	return strings.Join(kept, " ")
}

// TestRunChaosReplayCorpusFiles also checks that every file of the
// corpus has a replay row.
func TestRunChaosReplayCorpusFiles(t *testing.T) {
	pinSeeded(t)
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.repro"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		if !slices.ContainsFunc(seededRows, func(r seededRow) bool {
			return r.args == "-chaos -replay "+filepath.Base(f)
		}) {
			t.Errorf("%s has no row: add -chaos -replay %s", f, filepath.Base(f))
		}
	}
}

// pinSeeded runs the rows of seededRows that name t and checks them.
func pinSeeded(t *testing.T) {
	t.Helper()
	for _, r := range seededRows {
		if r.test != t.Name() {
			continue
		}
		got, text := runSeeded(t, r.args)
		if again, _ := runSeeded(t, r.args); again != got {
			t.Errorf("timesim %s: two runs differ: %s, then %s", r.args, got, again)
		}
		if got != r.want {
			t.Errorf("timesim %s: digests %q, pinned %q", r.args, got, r.want)
		}
		for _, s := range r.has {
			if !strings.Contains(text, s) {
				t.Errorf("timesim %s: output lacks %q", r.args, s)
			}
		}
	}
}

// runSeeded runs timesim with the arguments of line, each -metrics and
// -trace-out value put in a fresh directory and each -replay value read
// from corpusDir. It returns the 16-hex SHA-256 prefixes of stdout and
// of each written file, space-separated in that order, and all of those
// bytes as text.
func runSeeded(t *testing.T, line string) (digests, text string) {
	t.Helper()
	dir := t.TempDir()
	args := strings.Fields(line)
	var written []string
	for i := 1; i < len(args); i++ {
		switch args[i-1] {
		case "-metrics", "-trace-out":
			args[i] = filepath.Join(dir, args[i])
			written = append(written, args[i])
		case "-replay":
			args[i] = filepath.Join(corpusDir, args[i])
		}
	}
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Errorf("timesim %s: %v\n%s", line, err, out.String())
	}
	outputs := []string{out.String()}
	for _, f := range written {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, string(data))
	}
	sums := make([]string, len(outputs))
	for i, o := range outputs {
		sum := sha256.Sum256([]byte(o))
		sums[i] = hex.EncodeToString(sum[:8])
	}
	return strings.Join(sums, " "), strings.Join(outputs, "")
}
