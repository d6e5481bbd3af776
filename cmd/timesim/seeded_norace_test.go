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
// expectation), no output reports a FALSE-EVICTION or a VIOLATION, and
// each string of has appears in the row's output. Like
// TestExperimentsDocMatchesTree these tests are not built under the race
// detector, which stretches their 0.4 s to 6 s.
var seededRows = []seededRow{
	{"TestSeededOutputsPinned", "-experiment S1", "8f565bda48b1b47a", []string{"S1:", "found: skew grows with network distance"}},
	{"TestRunChaosBatch", "-chaos -campaigns 60 -chaos-seed 1", "a781bd8687bb2e14", []string{"chaos: 60 campaigns ok"}},
	{"TestChaosMetricsPassive", "-chaos -campaigns 60 -chaos-seed 1 -metrics m.json", "a781bd8687bb2e14 4518e40f1338ef5b", []string{"chaos_campaigns_total", "chaos_invariant_checks_total"}},
	{"TestSeededOutputsPinned", "-chaos -adversarial -campaigns 10 -adv-steps 15 -chaos-seed 1", "453eb07fe73e5082", []string{"chaos: 10 adversarial searches ok"}},
	{"TestRunChurnDeterministic", "-churn 2 -churn-seed 7", "37209a6f6854035d", []string{"false-evictions=0"}},
	{"TestRunChurnDeterministic", "-churn 3 -churn-seed 9", "407a8e91e6de99f0", []string{"churn demo:", "alive->left", "left->alive", "false-evictions=0"}},
	{"TestRunChurnDeterministic", "-churn 3 -churn-seed 10", "f9d7c5c1159bacc3", []string{"false-evictions=0"}},
	{"TestRunTxnDeterministic", "-txn -txn-seed 7", "0f452526d1bb7ada", []string{"violations=0"}},
	{"TestRunTxnDeterministic", "-txn -txn-seed 9", "c297a37aa6f423f2", []string{"txn demo:", "commit client=", "violations=0"}},
	{"TestRunTxnDeterministic", "-txn -txn-seed 10", "73001c96c8285cb3", []string{"violations=0"}},
	{"TestObservedRunDeterministic", "-metrics m.json -trace-out t.jsonl", "56aaeb265559eea4 e54e975fd93e5007 ee396a667a0c8873", []string{
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
	{"TestRunChaosReplayCorpusFiles", "-chaos -replay buggy-slew.repro", "d12489ca82410bc3", nil},
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
// rows pin the same stdout unless one only adds -metrics to the other.
// Since every row's run must match its pin, that last check holds of the
// outputs too.
func TestSeededOutputsPinned(t *testing.T) {
	pinSeeded(t)
	printed := make(map[string]string) // pinned stdout digest -> its row
	for _, r := range seededRows {
		switch r.test {
		case "TestSeededOutputsPinned", "TestRunChaosBatch", "TestChaosMetricsPassive",
			"TestRunChurnDeterministic", "TestRunTxnDeterministic",
			"TestObservedRunDeterministic", "TestRunChaosReplayCorpusFiles":
		default:
			t.Errorf("timesim %s: no test named %s runs it", r.args, r.test)
		}
		stdout, _, _ := strings.Cut(r.want, " ")
		if _, observed := strings.CutSuffix(r.args, " -metrics m.json"); observed {
			continue // TestChaosMetricsPassive checks it
		}
		if prev, dup := printed[stdout]; dup {
			t.Errorf("timesim %s prints what timesim %s does", r.args, prev)
		}
		printed[stdout] = r.args
	}
}

func TestRunChaosBatch(t *testing.T)            { pinSeeded(t) }
func TestRunChurnDeterministic(t *testing.T)    { pinSeeded(t) }
func TestRunTxnDeterministic(t *testing.T)      { pinSeeded(t) }
func TestObservedRunDeterministic(t *testing.T) { pinSeeded(t) }

// TestChaosMetricsPassive: each -metrics row prints what the row without
// -metrics does, so observation is passive.
func TestChaosMetricsPassive(t *testing.T) {
	pinSeeded(t)
	pinned := make(map[string]string) // args -> pinned stdout digest
	for _, r := range seededRows {
		pinned[r.args], _, _ = strings.Cut(r.want, " ")
	}
	for _, r := range seededRows {
		if plain, ok := strings.CutSuffix(r.args, " -metrics m.json"); ok && pinned[r.args] != pinned[plain] {
			t.Errorf("timesim %s: -metrics changed what timesim %s prints", r.args, plain)
		}
	}
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
		for _, bad := range []string{"FALSE-EVICTION", "VIOLATION"} {
			if strings.Contains(text, bad) {
				t.Errorf("timesim %s reports a %s", r.args, bad)
			}
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
