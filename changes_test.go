package disttime_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// foldedFrom is the first change whose CHANGES.md entry is held to
// maxEntry bytes; the entries before it predate the rule and stay as
// written.
const (
	foldedFrom = 36
	maxEntry   = 1500
)

// TestChangesEntriesStayFolded holds every CHANGES.md entry from change
// foldedFrom on to 1.5 kB: its first sentence and its numbers, the rest
// left to the commit.
func TestChangesEntriesStayFolded(t *testing.T) {
	checked := 0
	for _, e := range changesEntries(t) {
		if e.pr < foldedFrom {
			continue
		}
		checked++
		if e.size > maxEntry {
			t.Errorf("CHANGES.md: the entry for PR %d is %d bytes, want at most %d", e.pr, e.size, maxEntry)
		}
	}
	if checked == 0 {
		t.Fatalf("CHANGES.md has no entry from PR %d on", foldedFrom)
	}
}

// changeEntry is one CHANGES.md entry: a line that opens with "PR <n>"
// (or "- **PR <n>"), plus any lines up to the next such line.
type changeEntry struct {
	pr   int
	head string // the opening line
	text string
	size int // bytes, each line trimmed
}

func changesEntries(t *testing.T) []changeEntry {
	t.Helper()
	doc, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	opens := regexp.MustCompile(`^(?:- \*\*)?PR ?(\d+)`)
	var entries []changeEntry
	for _, line := range strings.SplitAfter(string(doc), "\n") {
		if m := opens.FindStringSubmatch(line); m != nil {
			pr, _ := strconv.Atoi(m[1])
			entries = append(entries, changeEntry{pr: pr, head: line})
		}
		if len(entries) > 0 {
			e := &entries[len(entries)-1]
			e.text += line
			e.size += len(strings.TrimSpace(line))
		}
	}
	return entries
}

// benchFrom is the first change from which every [perf_opt] entry of
// CHANGES.md names the BENCH_<PR>.json of its pairs.
const benchFrom = 41

// benchFile is what TestBenchFilesRecorded reads of a BENCH_<PR>.json:
// the machine the pairs ran on and, per workload and side ("parent",
// "change"), each end-to-end metric's runs.
type benchFile struct {
	Backfilled bool `json:"backfilled"`
	Machine    struct {
		CPU    string `json:"cpu"`
		NumCPU int    `json:"nproc"`
	} `json:"machine"`
	Workloads map[string]map[string]map[string]struct {
		Runs []float64 `json:"runs"`
	} `json:"workloads"`
}

// TestBenchFilesRecorded holds the tracked trajectory, one root
// BENCH_<PR>.json per change that measures: each names its machine,
// holds at least ten runs a side of ops_per_s, e_us and setup_s on
// every workload it lists (a back-filled file only the numbers its
// CHANGES.md entry recorded), and is named by its change's CHANGES.md
// entry; and from change benchFrom on, every [perf_opt] entry names a
// file that exists.
func TestBenchFilesRecorded(t *testing.T) {
	entries := changesEntries(t)
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json (%v)", err)
	}
	have := make(map[int]bool)
	for _, f := range files {
		pr, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f, "BENCH_"), ".json"))
		if err != nil {
			t.Errorf("%s: not BENCH_<PR>.json", f)
			continue
		}
		have[pr] = true
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var b benchFile
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if b.Machine.CPU == "" || b.Machine.NumCPU == 0 {
			t.Errorf("%s: no machine record", f)
		}
		if len(b.Workloads) == 0 {
			t.Errorf("%s: no workloads", f)
		}
		for w, sides := range b.Workloads {
			for _, side := range []string{"parent", "change"} {
				for _, metric := range []string{"ops_per_s", "e_us", "setup_s"} {
					if n := len(sides[side][metric].Runs); n < 10 && !b.Backfilled {
						t.Errorf("%s: %s, %s %s: %d runs, want at least 10", f, w, side, metric, n)
					}
				}
			}
		}
		if !slices.ContainsFunc(entries, func(e changeEntry) bool { return e.pr == pr && strings.Contains(e.text, f) }) {
			t.Errorf("%s: no CHANGES.md entry for PR %d names it", f, pr)
		}
	}
	for _, e := range entries {
		name := fmt.Sprintf("BENCH_%d.json", e.pr)
		if e.pr >= benchFrom && strings.Contains(e.head, "[perf_opt]") && (!have[e.pr] || !strings.Contains(e.text, name)) {
			t.Errorf("CHANGES.md: the [perf_opt] entry for PR %d names no %s", e.pr, name)
		}
	}
}
