package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"disttime/internal/udptime"
)

// fixedClock answers with the system time shifted by offset.
type fixedClock struct {
	offset time.Duration
	err    time.Duration
}

func (c fixedClock) Now() (time.Time, time.Duration, bool) {
	return time.Now().Add(c.offset), c.err, true
}

func startServer(t *testing.T, id uint64, src udptime.ClockSource) string {
	t.Helper()
	srv, err := udptime.NewServer("127.0.0.1:0", id, src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

func TestRunNoServers(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Error("missing -servers accepted")
	}
}

func TestRunQueriesAndCombines(t *testing.T) {
	a := startServer(t, 1, fixedClock{err: 10 * time.Millisecond})
	b := startServer(t, 2, fixedClock{err: 10 * time.Millisecond})
	var buf strings.Builder
	err := run([]string{"-servers", a + "," + b}, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "combined:") {
		t.Errorf("no combined line:\n%s", out)
	}
}

func TestRunInconsistentWithoutSelect(t *testing.T) {
	a := startServer(t, 1, fixedClock{err: time.Millisecond})
	b := startServer(t, 2, fixedClock{offset: time.Hour, err: time.Millisecond})
	var buf strings.Builder
	err := run([]string{"-servers", a + "," + b}, &buf)
	if err == nil {
		t.Error("inconsistent servers did not fail without -select")
	}
}

func TestRunSelectRejectsFalseticker(t *testing.T) {
	good1 := startServer(t, 1, fixedClock{err: 10 * time.Millisecond})
	good2 := startServer(t, 2, fixedClock{err: 10 * time.Millisecond})
	liar := startServer(t, 3, fixedClock{offset: time.Hour, err: time.Millisecond})
	var buf strings.Builder
	servers := fmt.Sprintf("%s,%s,%s", good1, good2, liar)
	if err := run([]string{"-servers", servers, "-select"}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "falseticker rejected") {
		t.Errorf("falseticker not reported:\n%s", buf.String())
	}
}

func TestRunAllServersDown(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-servers", "127.0.0.1:1"}, &buf)
	if err == nil {
		t.Error("unreachable server accepted")
	}
}

// unsyncedClock reports itself unsynchronized.
type unsyncedClock struct{}

func (unsyncedClock) Now() (time.Time, time.Duration, bool) {
	return time.Now(), 0, false
}

// TestRunSelectNamesLiarAfterUnsynchronized puts an unsynchronized
// server first: the selection's indices count synchronized measurements
// only, so the rejected falseticker must still be named as the liar.
func TestRunSelectNamesLiarAfterUnsynchronized(t *testing.T) {
	unsynced := startServer(t, 1, unsyncedClock{})
	good1 := startServer(t, 2, fixedClock{err: 10 * time.Millisecond})
	good2 := startServer(t, 3, fixedClock{err: 10 * time.Millisecond})
	liar := startServer(t, 4, fixedClock{offset: time.Hour, err: time.Millisecond})
	var buf strings.Builder
	servers := strings.Join([]string{unsynced, good1, good2, liar}, ",")
	if err := run([]string{"-servers", servers, "-select"}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	if want := "falseticker rejected: " + liar + "\n"; !strings.Contains(out, want) ||
		strings.Count(out, "falseticker rejected:") != 1 {
		t.Errorf("want exactly %q:\n%s", want, out)
	}
}

func TestRunAllUnsynchronized(t *testing.T) {
	a := startServer(t, 1, unsyncedClock{})
	var buf strings.Builder
	err := run([]string{"-servers", a}, &buf)
	if err == nil {
		t.Error("all-unsynchronized service accepted")
	}
}
