// Command disttimelint runs disttime's in-tree static analyzers: seven
// repo-specific invariant checks (nowcheck, globalrand, atomicmix,
// floateq, mapiter, poolput, guardedby) built on the standard
// library's go/ast and go/types, with no external dependencies. See
// internal/lint for the framework and DESIGN.md §10 for the invariant
// each check guards and the planted violation that keeps it.
//
// Usage:
//
//	disttimelint [-json] [-checks nowcheck,floateq] [patterns...]
//
// Patterns are package directories or recursive "dir/..." walks (default
// "./..."). The exit code is 0 when clean, 1 on findings, 2 on load or
// usage errors. Findings can be suppressed line-by-line with a
// "//lint:ignore <check> <reason>" directive whose reason is a written
// justification of at least three words.
package main

import (
	"os"

	"disttime/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
