package udptime

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"disttime/internal/obs"
)

// sec converts a float second count to a Duration.
func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// TestOffsetIntervalContainsTrueOffset is the rule IM-2 transform
// property test: for every (C, E, xi, delta) case, the extreme true
// offsets the transform must account for lie inside the returned
// interval. The server's reading C was taken at some instant during the
// round trip; by the receive instant the server's timeline has advanced
// by up to the full round trip as measured by a local clock that itself
// drifts at up to delta — so the true offset can be as large as
// (C - local) + E + (1+delta)*xi. The old code dropped the delta term,
// so for large xi*delta its interval excluded that extreme.
func TestOffsetIntervalContainsTrueOffset(t *testing.T) {
	const tol = 1e-9
	cases := []struct {
		name                string
		c, e, xi, delta     float64
		oldCodeExcludedHigh bool // delta*xi above float tolerance
	}{
		{"zero-delta", 0.5, 0.01, 0.002, 0, false},
		{"lan-rtt", 0.5, 0.01, 0.002, 100e-6, false},
		{"satellite-rtt", -3.25, 0.05, 1.5, 100e-6, true},
		{"large-sim-rtt", 12.0, 0.001, 10.0, 1e-4, true},
		{"huge-drift", 0.0, 0.02, 4.0, 0.01, true},
		{"negative-offset", -100.0, 0.5, 8.0, 5e-4, true},
	}
	t0 := time.Unix(1_700_000_000, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Measurement{
				C:         t0.Add(sec(tc.c)),
				E:         sec(tc.e),
				RTT:       sec(tc.xi),
				LocalRecv: t0,
				Delta:     tc.delta,
			}
			iv := m.OffsetInterval()
			// Extreme low: server read at the receive edge, error fully
			// negative.
			low := tc.c - tc.e
			// Extreme high: server read at the send edge, error fully
			// positive, local clock slow by delta during the exchange.
			high := tc.c + tc.e + (1+tc.delta)*tc.xi
			for _, off := range []float64{low, tc.c, high} {
				if !iv.Contains(off) {
					t.Errorf("interval [%.9g, %.9g] excludes true offset %.9g", iv.Lo, iv.Hi, off)
				}
			}
			// Document the regression the fix closes: the old transform's
			// upper edge (no delta charge) excluded the high extreme.
			oldHi := tc.c + tc.e + tc.xi
			if tc.oldCodeExcludedHigh && high <= oldHi+tol {
				t.Errorf("case should separate old and new transforms: high %.9g vs old hi %.9g", high, oldHi)
			}
			if !tc.oldCodeExcludedHigh && high > oldHi+1e-6 {
				t.Errorf("case unexpectedly separates transforms: high %.9g vs old hi %.9g", high, oldHi)
			}
		})
	}
}

// TestClientStampsDelta checks that a queried measurement carries the
// client's configured drift bound, end to end over loopback.
func TestClientStampsDelta(t *testing.T) {
	srv := startServer(t, 7, shiftedClock{err: time.Millisecond, synced: true})
	client := NewClient(2*time.Second, nil, WithSyncOptions(SyncOptions{Delta: 2.5e-4}))
	m, err := client.Query(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if m.Delta != 2.5e-4 {
		t.Errorf("measurement delta = %v, want 2.5e-4", m.Delta)
	}
	iv := m.OffsetInterval()
	plain := Measurement{C: m.C, E: m.E, RTT: m.RTT, LocalRecv: m.LocalRecv}
	if iv.Hi <= plain.OffsetInterval().Hi {
		t.Errorf("delta charge did not widen the upper edge: %v vs %v", iv.Hi, plain.OffsetInterval().Hi)
	}
}

// descheduledClock reads the host clock and hands the reading back 5 ms
// late: a goroutine descheduled between taking a reading and using it.
type descheduledClock struct{}

func (descheduledClock) Now() (time.Time, time.Duration, bool) {
	now := time.Now()
	time.Sleep(5 * time.Millisecond)
	return now, 0, true
}

// TestQuerySurvivesDeschedulingBetweenClockReads pins the order of the
// client's two send-side clock reads. Client and server share the host
// clock, so the true offset is zero. Whatever the gap between the local
// reading and the monotonic one, it must land in the round trip, where
// it widens the offset interval, and not in LocalRecv, where it would
// shift the interval off zero by the gap.
func TestQuerySurvivesDeschedulingBetweenClockReads(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{err: 100 * time.Microsecond, synced: true})
	client := NewClient(2*time.Second, descheduledClock{})
	m, err := client.Query(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if iv := m.OffsetInterval(); iv.Lo > 0 || iv.Hi < 0 {
		t.Fatalf("offset interval [%v, %v] excludes the true offset 0 (RTT %v)", iv.Lo, iv.Hi, m.RTT)
	}
}

// TestSplitmix64KnownVectors pins the fallback seeder to the reference
// splitmix64 sequence for seed 0 (the published test vectors), so the
// derivation cannot silently regress to a weaker mix.
func TestSplitmix64KnownVectors(t *testing.T) {
	state := uint64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := splitmix64(&state); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestFallbackPCGSeedWordsIndependent checks the entropy-failure path:
// the two PCG seed words must not be related by the old fixed-xor
// pattern, and equal seeds must reproduce the stream (so the fallback is
// still a deterministic function of the clock reading it consumes).
func TestFallbackPCGSeedWordsIndependent(t *testing.T) {
	seed := uint64(0x123456789abcdef)
	a := rand.New(fallbackPCG(seed))
	b := rand.New(fallbackPCG(seed))
	for i := 0; i < 8; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds produced different streams")
		}
	}
	// The derived words differ from the old (seed, seed^const) scheme:
	// a generator seeded the old way diverges immediately.
	old := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	fresh := rand.New(fallbackPCG(seed))
	same := 0
	for i := 0; i < 8; i++ {
		if old.Uint64() == fresh.Uint64() {
			same++
		}
	}
	if same == 8 {
		t.Fatal("fallback still seeds with the fixed-xor scheme")
	}
	// Nearby seeds (consecutive UnixNano readings) yield unrelated
	// streams.
	c, d := rand.New(fallbackPCG(seed)), rand.New(fallbackPCG(seed+1))
	if c.Uint64() == d.Uint64() {
		t.Error("adjacent seeds produced identical first outputs")
	}
}

// TestNewReqIDRNGEntropyPath covers the normal constructor path: two
// independently seeded generators must disagree (crypto entropy), and
// IDs within one generator must be distinct.
func TestNewReqIDRNGEntropyPath(t *testing.T) {
	a, b := newReqIDRNG(), newReqIDRNG()
	if a.Uint64() == b.Uint64() {
		t.Error("two entropy-seeded generators produced identical first IDs")
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		id := a.Uint64()
		if seen[id] {
			t.Fatalf("duplicate request ID %#x", id)
		}
		seen[id] = true
	}
}

// TestConcurrentQueriesRaceClean hammers one client from many
// goroutines — single queries and whole rounds, which share its idle
// sockets — while the configuration is mutated and, part way in, the
// client is closed. A query may then fail, but only with net.ErrClosed.
// Run under -race (the Makefile's race target includes this package).
func TestConcurrentQueriesRaceClean(t *testing.T) {
	wireVersions(t, func(t *testing.T, opts ...ClientOption) {
		srv := startServer(t, 3, shiftedClock{err: time.Millisecond, synced: true})
		addr := srv.Addr().String()
		reg := obs.NewRegistry()
		client := NewClient(2*time.Second, nil, append(opts, WithClientObservability(reg))...)
		queries := reg.Counter("udptime_client_queries_total")
		check := func(n int, err error) {
			if err != nil && !errors.Is(err, net.ErrClosed) {
				t.Errorf("query: %v", err)
			} else if err == nil && n != 1 {
				t.Errorf("%d measurements per server", n)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					_, err := client.Query(addr)
					check(1, err)
				}
			}()
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					ms, err := client.QueryMany([]string{addr, addr})
					check(len(ms)/2, err)
				}
			}()
		}
		// Concurrent reconfiguration: the old code read LocalClock without
		// the mutex.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				client.SetLocalClock(nil)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for queries.Value() < 40 {
				runtime.Gosched()
			}
			if err := client.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		wg.Wait()
		if got := queries.Value(); got != 80 {
			t.Errorf("queries counter = %d, want 80", got)
		}
		if got := reg.LogHistogram("udptime_client_rtt_seconds").Count(); got == 0 {
			t.Error("RTT histogram recorded nothing")
		}
		if len(client.idle) != 0 {
			t.Errorf("%d sockets idle after Close", len(client.idle))
		}
	})
}

// TestHealthListener exercises the server's HTTP side: /healthz,
// Prometheus /metrics fed by the shared registry, and the pprof index.
func TestHealthListener(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer("127.0.0.1:0", 11, shiftedClock{err: time.Millisecond, synced: true},
		WithServerObservability(reg), WithHealthListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.HealthAddr() == nil {
		t.Fatal("health listener not bound")
	}
	base := "http://" + srv.HealthAddr().String()

	client := NewClient(2*time.Second, nil, WithClientObservability(reg))
	if _, err := client.Query(srv.Addr().String()); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if !strings.Contains(body, fmt.Sprintf(`"server_id":%d`, 11)) {
		t.Errorf("/healthz missing server id: %q", body)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"udptime_server_requests_total 1",
		"udptime_client_queries_total 1",
		"# TYPE udptime_client_rtt_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
}

// TestHealthListenerWithoutRegistry checks that WithHealthListener alone
// still serves the server's own counters from a private registry.
func TestHealthListenerWithoutRegistry(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 5, shiftedClock{synced: true},
		WithHealthListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.HealthAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "udptime_server_requests_total") {
		t.Errorf("/metrics missing server counters:\n%s", body)
	}
}

// TestSyncerMetrics checks the syncer's observability wiring: the pass
// counter and the applied error-bound and adjustment histograms appear
// in the registry, and the
// measurement deltas default from the disciplined clock's drift bound.
func TestSyncerMetrics(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{err: 2 * time.Millisecond, synced: true})
	dc, err := NewDisciplinedClock(250) // 250 ppm
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reports := make(chan SyncReport, 1)
	s, err := NewSyncer(dc, SyncerConfig{
		Servers:  []string{srv.Addr().String()},
		Interval: time.Hour, // only the immediate first round
		Timeout:  2 * time.Second,
		Metrics:  reg,
		OnSync:   func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	select {
	case r := <-reports:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first round did not complete")
	}
	if got := reg.Counter("udptime_sync_rounds_total").Value(); got != 1 {
		t.Errorf("rounds counter = %d, want 1", got)
	}
	for _, h := range []string{"udptime_error_after_seconds", "udptime_adjustment_seconds"} {
		if got := reg.LogHistogram(h).Count(); got != 1 {
			t.Errorf("%s count = %d, want 1", h, got)
		}
	}
	if got := reg.Counter("udptime_sync_failures_total").Value(); got != 0 {
		t.Errorf("failures counter = %d after a synced round, want 0", got)
	}
	if got := reg.Counter("udptime_client_queries_total").Value(); got == 0 {
		t.Error("syncer's client not observed")
	}
	// The syncer defaulted the IM-2 delta from the clock's drift bound.
	want := 250.0 / 1e6
	s.client.mu.Lock()
	got := s.client.cfg.opts.Delta
	s.client.mu.Unlock()
	if got != want {
		t.Errorf("client delta = %v, want %v (clock DriftPPM/1e6)", got, want)
	}
}

// TestSyncerFailedRoundCountsNoPass: a round no server answers runs no
// pass, so it bumps udptime_sync_failures_total and no pass metric.
func TestSyncerFailedRoundCountsNoPass(t *testing.T) {
	// A socket that reads nothing: the query times out.
	mute, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reports := make(chan SyncReport, 1)
	s, err := NewSyncer(dc, SyncerConfig{
		Servers:  []string{mute.LocalAddr().String()},
		Interval: time.Hour,
		Timeout:  50 * time.Millisecond,
		Metrics:  reg,
		OnSync:   func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	select {
	case r := <-reports:
		if r.Err == nil || r.Pass != nil || r.Measurements != 0 {
			t.Fatalf("unanswered round: %+v, want an error and no pass", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first round did not complete")
	}
	if got := reg.Counter("udptime_sync_failures_total").Value(); got != 1 {
		t.Errorf("failures counter = %d, want 1", got)
	}
	for _, c := range []string{"udptime_sync_rounds_total", "udptime_resets_total", "udptime_replies_total"} {
		if got := reg.Counter(c).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", c, got)
		}
	}
	for _, h := range []string{"udptime_error_before_seconds", "udptime_error_after_seconds", "udptime_adjustment_seconds", "udptime_aging_rate"} {
		if got := reg.LogHistogram(h).Count(); got != 0 {
			t.Errorf("%s count = %d, want 0", h, got)
		}
	}
}
