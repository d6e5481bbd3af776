package main

import (
	"bytes"
	"strings"
	"testing"

	"disttime/internal/lint"
)

// TestLintMainFromCmdDir exercises the driver exactly as the binary does,
// with paths relative to this package's directory.
func TestLintMainFromCmdDir(t *testing.T) {
	var out, errb bytes.Buffer
	code := lint.Main([]string{"../../internal/lint/testdata/src/clean"}, &out, &errb)
	if code != lint.ExitClean {
		t.Fatalf("clean fixture: exit %d, stderr %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	code = lint.Main([]string{"../../internal/lint/testdata/src/globalrand"}, &out, &errb)
	if code != lint.ExitFindings {
		t.Fatalf("globalrand fixture: exit %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "globalrand:") {
		t.Fatalf("missing check name in output:\n%s", out.String())
	}
}

// TestLintUsage lists every check in the usage text.
func TestLintUsage(t *testing.T) {
	var out, errb bytes.Buffer
	code := lint.Main([]string{"-h"}, &out, &errb)
	if code != lint.ExitError {
		t.Fatalf("-h: exit %d", code)
	}
	for _, check := range []string{"nowcheck", "globalrand", "atomicmix", "floateq", "mapiter",
		"poolput", "guardedby"} {
		if !strings.Contains(errb.String(), check) {
			t.Errorf("usage missing %s:\n%s", check, errb.String())
		}
	}
}
