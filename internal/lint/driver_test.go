package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runDriver(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := Main(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestDriverExitsNonzeroOnFixtures: every violating fixture must make the
// driver exit 1 under the default (shipping) configuration.
func TestDriverExitsNonzeroOnFixtures(t *testing.T) {
	for _, name := range []string{"nowcheck", "globalrand", "floateq", "mapiter", "poolput",
		"guardedby", "atomicmix", "badignore"} {
		code, out, errb := runDriver(t, "testdata/src/"+name)
		if code != ExitFindings {
			t.Errorf("fixture %s: exit %d, want %d (stdout %q, stderr %q)",
				name, code, ExitFindings, out, errb)
		}
		if !strings.Contains(out, name+".go:") && name != "badignore" {
			t.Errorf("fixture %s: findings do not mention %s.go:\n%s", name, name, out)
		}
	}
}

// TestDriverExitsZeroOnClean: the clean fixture and the lint package
// subtree itself are finding-free.
func TestDriverExitsZeroOnClean(t *testing.T) {
	if code, out, errb := runDriver(t, "testdata/src/clean"); code != ExitClean {
		t.Errorf("clean fixture: exit %d (stdout %q, stderr %q)", code, out, errb)
	}
}

// TestDriverWholeTreeClean runs the driver over the entire repository
// exactly as `make lint` does; the tree must stay finding-free.
func TestDriverWholeTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree type check skipped in -short mode")
	}
	code, out, errb := runDriver(t, "../../...")
	if code != ExitClean {
		t.Errorf("tree not clean: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
}

// TestDriverJSONShape pins the machine-readable output: a JSON array of
// objects with check/file/line/col/message fields.
func TestDriverJSONShape(t *testing.T) {
	code, out, _ := runDriver(t, "-json", "testdata/src/nowcheck")
	if code != ExitFindings {
		t.Fatalf("exit %d, want %d", code, ExitFindings)
	}
	var diags []Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics decoded")
	}
	for _, d := range diags {
		if d.Check != "nowcheck" || d.Line <= 0 || d.Col <= 0 ||
			!strings.Contains(d.File, "nowcheck") || d.Message == "" {
			t.Errorf("malformed diagnostic: %+v", d)
		}
	}
	// The wire keys are stable lowercase names.
	var raw []map[string]any
	if err := json.Unmarshal([]byte(out), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"check", "file", "line", "col", "message"} {
		if _, ok := raw[0][key]; !ok {
			t.Errorf("JSON object missing key %q: %v", key, raw[0])
		}
	}
}

// TestDriverJSONCleanIsEmptyArray: clean runs still emit valid JSON.
func TestDriverJSONCleanIsEmptyArray(t *testing.T) {
	code, out, _ := runDriver(t, "-json", "testdata/src/clean")
	if code != ExitClean {
		t.Fatalf("exit %d, want %d", code, ExitClean)
	}
	var diags []Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil || diags == nil || len(diags) != 0 {
		t.Fatalf("want empty JSON array, got %q (err %v)", out, err)
	}
}

// TestDriverChecksFlag: -checks restricts the suite, and unknown names
// are usage errors.
func TestDriverChecksFlag(t *testing.T) {
	if code, out, _ := runDriver(t, "-checks", "globalrand", "testdata/src/nowcheck"); code != ExitClean {
		t.Errorf("nowcheck fixture with only globalrand enabled: exit %d, stdout %q", code, out)
	}
	if code, _, errb := runDriver(t, "-checks", "nosuchcheck", "testdata/src/clean"); code != ExitError {
		t.Errorf("unknown check: exit %d, stderr %q", code, errb)
	}
}

// TestDriverBadPattern: unknown paths are load errors, not findings.
func TestDriverBadPattern(t *testing.T) {
	if code, _, _ := runDriver(t, "testdata/src/doesnotexist"); code != ExitError {
		t.Errorf("missing dir: want exit %d", ExitError)
	}
}

// TestDriverSummaryLine pins the machine-readable per-analyzer summary
// CI greps out of stderr: every enabled check appears as name=count.
func TestDriverSummaryLine(t *testing.T) {
	_, _, errb := runDriver(t, "testdata/src/nowcheck")
	line := ""
	for _, l := range strings.Split(errb, "\n") {
		if strings.HasPrefix(l, "disttimelint: ") && strings.Contains(l, "diagnostics:") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no summary line on stderr:\n%s", errb)
	}
	if !strings.Contains(line, "1 packages") {
		t.Errorf("summary missing package count: %q", line)
	}
	for _, a := range Analyzers() {
		if !strings.Contains(line, " "+a.Name+"=") {
			t.Errorf("summary missing %s count: %q", a.Name, line)
		}
	}
	if strings.Contains(line, "nowcheck=0") {
		t.Errorf("nowcheck fixture should report nonzero nowcheck findings: %q", line)
	}
}
