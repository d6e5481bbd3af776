package txn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"disttime/internal/core"
	"disttime/internal/service"
)

// testService builds a small synchronized service whose clocks start
// skewed but contained: offsets within ±initialError, drifts within the
// claimed bound.
func testService(t *testing.T, seed uint64, n int) *service.Service {
	t.Helper()
	specs := make([]service.ServerSpec, n)
	for i := range specs {
		off := 0.04 - 0.08*float64(i)/float64(n-1) // spread across [-0.04, 0.04]
		specs[i] = service.ServerSpec{
			Delta:         1e-4,
			Drift:         1e-4 * (1 - 2*float64(i%2)), // alternate fast/slow
			InitialOffset: off,
			InitialError:  0.05,
			SyncEvery:     20,
		}
	}
	svc, err := service.New(service.Config{
		Seed:    seed,
		Delay:   core.Band{Max: 0.05},
		Fn:      core.IM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestAttachValidation(t *testing.T) {
	svc := testService(t, 1, 3)
	if _, err := Attach(svc, Config{Clients: 0}); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := Attach(svc, Config{Clients: 4}); err == nil {
		t.Error("more clients than servers accepted")
	}
	if _, err := Attach(svc, Config{Clients: 2, Rate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestCleanRunNoViolations is the core guarantee on the simulated
// substrate: with contained clocks and the real commit-wait, the
// external-consistency check never fires, and every transaction's
// commit strictly follows its start (the wait is real).
func TestCleanRunNoViolations(t *testing.T) {
	svc := testService(t, 42, 4)
	var commits []Txn
	w, err := Attach(svc, Config{
		Clients:  4,
		Rate:     2,
		OnCommit: func(x Txn) { commits = append(commits, x) },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(120)
	if w.Commits < 100 {
		t.Fatalf("only %d commits in 120s at rate 2x4", w.Commits)
	}
	if w.Violations != 0 {
		t.Fatalf("%d external-consistency violations on a clean run", w.Violations)
	}
	for _, x := range commits {
		if x.Commit <= x.Start {
			t.Fatalf("txn %d/%d committed at %v, started at %v: commit-wait skipped",
				x.Client, x.Seq, x.Commit, x.Start)
		}
	}
	// The workload's own ordering proof, independent of the online
	// checker: replay every committed pair.
	for i, a := range commits {
		for _, b := range commits[i+1:] {
			if a.Commit < b.Start && !a.TS.Before(b.TS) {
				t.Fatalf("txn %d/%d (ts %v) completed before %d/%d started (ts %v)",
					a.Client, a.Seq, a.TS, b.Client, b.Seq, b.TS)
			}
		}
	}
}

// TestBuggyCommitWaitViolates proves the checker has teeth: skipping the
// wait on skewed-but-contained clocks produces external-consistency
// violations.
func TestBuggyCommitWaitViolates(t *testing.T) {
	svc := testService(t, 7, 4)
	w, err := Attach(svc, Config{
		Clients: 4,
		Rate:    2,
		Waiter:  BuggyCommitWait{},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(120)
	if w.Commits == 0 {
		t.Fatal("no commits")
	}
	if w.Violations == 0 {
		t.Fatal("BuggyCommitWait went uncaught: no violations in 120s")
	}
}

// TestOnViolationReported pins the violation callback payload.
func TestOnViolationReported(t *testing.T) {
	svc := testService(t, 7, 4)
	var got []Violation
	w, err := Attach(svc, Config{
		Clients:     4,
		Rate:        2,
		Waiter:      BuggyCommitWait{},
		OnViolation: func(v Violation) { got = append(got, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(120)
	if len(got) != w.Violations {
		t.Fatalf("callback saw %d violations, counter %d", len(got), w.Violations)
	}
	if len(got) == 0 {
		t.Fatal("no violations")
	}
	if got[0].Detail == "" || got[0].T <= 0 {
		t.Fatalf("empty violation payload: %+v", got[0])
	}
}

// TestTrustedGateSuppresses pins the gate: distrusting every server
// suppresses the online check entirely (the chaos monitor relies on
// this to silence tainted servers).
func TestTrustedGateSuppresses(t *testing.T) {
	svc := testService(t, 7, 4)
	w, err := Attach(svc, Config{
		Clients: 4,
		Rate:    2,
		Waiter:  BuggyCommitWait{},
		Trusted: func(int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(120)
	if w.Violations != 0 {
		t.Fatalf("%d violations despite nothing trusted", w.Violations)
	}
}

// TestDeterminism runs the same seeded workload twice and requires the
// identical commit sequence — the property the timesim smoke rests on.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		svc := testService(t, 99, 3)
		var lines []string
		_, err := Attach(svc, Config{
			Clients: 3,
			Rate:    1,
			OnCommit: func(x Txn) {
				lines = append(lines, fmt.Sprintf("%d %d %.9f %.9f %v", x.Client, x.Seq, x.Start, x.Commit, x.TS))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Run(60)
		return lines
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no commits")
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestUntilStopsNewTransactions pins the workload window: no
// transaction starts after Until.
func TestUntilStopsNewTransactions(t *testing.T) {
	svc := testService(t, 5, 3)
	var commits []Txn
	_, err := Attach(svc, Config{
		Clients:  3,
		Rate:     2,
		Until:    30,
		OnCommit: func(x Txn) { commits = append(commits, x) },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(120)
	if len(commits) == 0 {
		t.Fatal("no commits")
	}
	for _, x := range commits {
		if x.Start > 30 {
			t.Fatalf("txn %d/%d started at %v, after Until", x.Client, x.Seq, x.Start)
		}
	}
}

// TestCrashPausesClient pins the crash interaction: a client on a
// crashed server issues nothing while it is down, and the run completes
// without violations once it restarts.
func TestCrashPausesClient(t *testing.T) {
	svc := testService(t, 11, 3)
	var commits []Txn
	w, err := Attach(svc, Config{
		Clients:  3,
		Rate:     2,
		OnCommit: func(x Txn) { commits = append(commits, x) },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Sim.AfterCall(20, func(any) { svc.Crash(0) }, nil)
	svc.Sim.AfterCall(60, func(any) { svc.Restart(0) }, nil)
	svc.Run(120)
	for _, x := range commits {
		if x.Client == 0 && x.Start > 20 && x.Start < 60 {
			t.Fatalf("client 0 started txn %d at %v while its server was down", x.Seq, x.Start)
		}
	}
	if w.Violations != 0 {
		t.Fatalf("%d violations across a crash/restart", w.Violations)
	}
}

// TestGoldenFingerprint pins the bytes of one seeded workload: every
// commit's client, sequence number, start and commit times and timestamp,
// then the simulator's event count and each server's final <C, E>. It is
// the transaction half of service.TestGoldenFingerprints (the workload
// files its own event kinds, client arrivals and commit-wait re-checks,
// which no run of the service alone does), with a crash and a restart so retries
// are in the digest too. It lives here because this package imports
// service. A digest that moves means the order, the time or the count of
// executed events changed: a change of behaviour to justify and re-pin,
// never a refactoring.
func TestGoldenFingerprint(t *testing.T) {
	const want = "8f67d75c57d00899"
	svc := testService(t, 7, 4)
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w, err := Attach(svc, Config{
		Clients: 4,
		Rate:    2,
		Start:   1,
		OnCommit: func(x Txn) {
			mix(uint64(x.Client))
			mix(uint64(x.Seq))
			mix(math.Float64bits(x.Start))
			mix(math.Float64bits(x.Commit))
			mix(uint64(x.TS.Wall))
			mix(uint64(x.TS.Logical)<<32 | uint64(x.TS.Node))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Sim.AfterCall(20, func(any) { svc.Crash(0) }, nil)
	svc.Sim.AfterCall(60, func(any) { svc.Restart(0) }, nil)
	svc.Run(120)
	if w.Commits < 100 {
		t.Fatalf("only %d commits: the digest covers too little", w.Commits)
	}
	mix(svc.Sim.Steps())
	for _, n := range svc.Nodes {
		r := n.Server.Reading(120)
		mix(math.Float64bits(r.C))
		mix(math.Float64bits(r.E))
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("fingerprint %s, pinned %s", got, want)
	}
}
