//go:build !race

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesTree holds EXPERIMENTS.md to the tree: the
// fenced block under each full-output heading is, byte for byte, what
// timesim prints for that heading's flag. It is not built under the race
// detector, which multiplies the three runs' second and a half.
func TestExperimentsDocMatchesTree(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-all", "-ablations", "-figures"} {
		want, ok := fencedBlockUnder(string(doc), "(`timesim "+flag+"`)")
		if !ok {
			t.Errorf("EXPERIMENTS.md has no heading ending in (`timesim %s`) with a fenced block under it", flag)
			continue
		}
		var got strings.Builder
		if err := run([]string{flag}, &got); err != nil {
			t.Fatalf("timesim %s: %v", flag, err)
		}
		if got.String() != want {
			t.Errorf("EXPERIMENTS.md's block for timesim %s is not the tree's output; the tree prints:\n%s", flag, got.String())
		}
	}
}

// fencedBlockUnder returns the body of the first fenced block after the
// heading that ends with suffix, each line with its newline.
func fencedBlockUnder(doc, suffix string) (string, bool) {
	lines := strings.SplitAfter(doc, "\n")
	i := 0
	for i < len(lines) && !(strings.HasPrefix(lines[i], "#") && strings.HasSuffix(strings.TrimSpace(lines[i]), suffix)) {
		i++
	}
	for i < len(lines) && !strings.HasPrefix(lines[i], "```") {
		i++
	}
	for j := i + 1; j < len(lines); j++ {
		if strings.TrimSpace(lines[j]) == "```" {
			return strings.Join(lines[i+1:j], ""), true
		}
	}
	return "", false
}
