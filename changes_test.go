package disttime_test

import (
	"os"
	"regexp"
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
// left to the commit. An entry is a line that opens with "PR <n>" (or
// "- **PR <n>"), plus any lines up to the next such line.
func TestChangesEntriesStayFolded(t *testing.T) {
	doc, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	opens := regexp.MustCompile(`^(?:- \*\*)?PR ?(\d+)`)
	type entry struct {
		pr   int
		size int
	}
	var entries []entry
	for _, line := range strings.SplitAfter(string(doc), "\n") {
		if m := opens.FindStringSubmatch(line); m != nil {
			pr, _ := strconv.Atoi(m[1])
			entries = append(entries, entry{pr: pr})
		}
		if len(entries) > 0 {
			entries[len(entries)-1].size += len(strings.TrimSpace(line))
		}
	}
	checked := 0
	for _, e := range entries {
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
