package udptime

import (
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"disttime/internal/wire"
)

// shiftedClock is a test ClockSource reading the system clock displaced by
// a fixed offset.
type shiftedClock struct {
	offset time.Duration
	err    time.Duration
	synced bool
}

func (s shiftedClock) Now() (time.Time, time.Duration, bool) {
	return time.Now().Add(s.offset), s.err, s.synced
}

func startServer(t *testing.T, id uint64, src ClockSource) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", id, src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestSystemClockValidation(t *testing.T) {
	if _, err := NewSystemClock(-1, 0); err == nil {
		t.Error("negative initial error accepted")
	}
	for _, ppm := range badDrifts {
		if _, err := NewSystemClock(0, ppm); err == nil {
			t.Errorf("drift %v ppm accepted", ppm)
		}
	}
}

// badDrifts are drift bounds no clock may accept: a δ that is negative,
// NaN or above 1 lets the aged error go negative.
var badDrifts = []float64{-1, math.NaN(), math.Inf(1), 1e6 + 1, 1e300}

func TestSystemClockErrorGrows(t *testing.T) {
	c, err := NewSystemClock(10*time.Millisecond, 1e6) // absurd ppm for fast test
	if err != nil {
		t.Fatal(err)
	}
	_, e0, synced := c.Now()
	if !synced {
		t.Error("system clock should be synchronized")
	}
	time.Sleep(20 * time.Millisecond)
	_, e1, _ := c.Now()
	if e1 <= e0 {
		t.Errorf("error did not grow: %v -> %v", e0, e1)
	}
}

func TestDisciplinedClockLifecycle(t *testing.T) {
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, synced := dc.Now(); synced {
		t.Error("fresh disciplined clock claims synchronization")
	}
	target := time.Now().Add(5 * time.Second)
	if err := dc.Set(target, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	now, e, synced := dc.Now()
	if !synced {
		t.Error("not synchronized after Set")
	}
	if e < 50*time.Millisecond {
		t.Errorf("error %v below inherited", e)
	}
	if d := now.Sub(target); d < 0 || d > time.Second {
		t.Errorf("clock value off by %v", d)
	}
	if err := dc.Set(target, -1); err == nil {
		t.Error("negative error accepted")
	}
}

// TestDisciplinedClockAdjust: one sync pass over a measurement 2 s ahead
// adjusts the clock by that offset, and its error covers the
// measurement's.
func TestDisciplinedClockAdjust(t *testing.T) {
	dc, err := NewDisciplinedClock(0)
	if err != nil {
		t.Fatal(err)
	}
	local := time.Now()
	m := Measurement{C: local.Add(2 * time.Second), E: 10 * time.Millisecond, LocalRecv: local}
	if _, err := SyncIM(dc, []Measurement{m}); err != nil {
		t.Fatal(err)
	}
	now, e, synced := dc.Now()
	if !synced {
		t.Fatal("not synchronized after a sync pass")
	}
	if d := now.Sub(time.Now()); d < 1900*time.Millisecond || d > 2100*time.Millisecond {
		t.Errorf("offset after the pass = %v, want ~2s", d)
	}
	if e < 10*time.Millisecond {
		t.Errorf("error after the pass = %v, below the measurement's 10ms", e)
	}
}

func TestDisciplinedClockValidation(t *testing.T) {
	for _, ppm := range badDrifts {
		if _, err := NewDisciplinedClock(ppm); err == nil {
			t.Errorf("drift %v ppm accepted", ppm)
		}
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", 1, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewServer("%%%bad", 1, shiftedClock{synced: true}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	srv := startServer(t, 42, shiftedClock{err: 25 * time.Millisecond, synced: true})
	client := NewClient(2*time.Second, nil)
	m, err := client.Query(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if m.ServerID != 42 {
		t.Errorf("ServerID = %d", m.ServerID)
	}
	if m.E != 25*time.Millisecond {
		t.Errorf("E = %v", m.E)
	}
	if m.RTT <= 0 || m.RTT > time.Second {
		t.Errorf("RTT = %v", m.RTT)
	}
	if m.Unsynchronized {
		t.Error("server flagged unsynchronized")
	}
	// Offset interval must contain ~zero (same machine, same clock).
	iv := m.OffsetInterval()
	if !iv.Contains(0) {
		t.Errorf("offset interval %v excludes 0", iv)
	}
	if srv.Requests() != 1 {
		t.Errorf("Requests = %d", srv.Requests())
	}
}

func TestQueryUnsynchronizedServer(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{synced: false})
	client := NewClient(2*time.Second, nil)
	m, err := client.Query(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Unsynchronized {
		t.Error("unsynchronized flag lost")
	}
}

func TestQueryTimeout(t *testing.T) {
	// A bound but silent socket: the query must time out.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client := NewClient(100*time.Millisecond, nil)
	if _, err := client.Query(conn.LocalAddr().String()); err == nil {
		t.Error("query to silent socket succeeded")
	}
}

func TestQueryBadAddress(t *testing.T) {
	client := NewClient(time.Second, nil)
	if _, err := client.Query("this is not an address"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestServerIgnoresMalformedDatagrams(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{synced: true})
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	// A valid query afterwards still works.
	client := NewClient(2*time.Second, nil)
	if _, err := client.Query(srv.Addr().String()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.MalformedDatagrams() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.MalformedDatagrams() == 0 {
		t.Error("malformed datagram not counted")
	}
}

func TestServerIgnoresResponseTypeDatagram(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{synced: true})
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf, err := wire.AppendResponse(nil, wire.Response{Clock: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.MalformedDatagrams() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Requests() != 0 {
		t.Error("response-typed datagram answered")
	}
}

func TestQueryMany(t *testing.T) {
	srv1 := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
	srv2 := startServer(t, 2, shiftedClock{err: time.Millisecond, synced: true})
	client := NewClient(2*time.Second, nil)
	ms, err := client.QueryMany([]string{srv1.Addr().String(), srv2.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements", len(ms))
	}
}

func TestQueryManyPartialFailure(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	client := NewClient(100*time.Millisecond, nil)
	ms, err := client.QueryMany([]string{srv.Addr().String(), silent.LocalAddr().String()})
	if err == nil {
		t.Error("expected a joined error for the silent server")
	}
	if len(ms) != 1 {
		t.Fatalf("got %d measurements, want 1", len(ms))
	}
}

func TestSyncIMDisciplinesClock(t *testing.T) {
	const shift = 3 * time.Second
	var servers []*Server
	for i := 0; i < 3; i++ {
		servers = append(servers, startServer(t, uint64(i),
			shiftedClock{offset: shift, err: 10 * time.Millisecond, synced: true}))
	}
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(2*time.Second, dc)
	var addrs []string
	for _, s := range servers {
		addrs = append(addrs, s.Addr().String())
	}
	ms, err := client.QueryMany(addrs)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := SyncIM(dc, ms)
	if err != nil {
		t.Fatal(err)
	}
	if applied.Width() <= 0 {
		t.Errorf("applied interval %v has no width", applied)
	}
	now, e, synced := dc.Now()
	if !synced {
		t.Fatal("clock not synchronized after SyncIM")
	}
	offset := now.Sub(time.Now())
	if math.Abs((offset - shift).Seconds()) > 0.2 {
		t.Errorf("disciplined offset = %v, want ~%v", offset, shift)
	}
	if e <= 0 || e > time.Second {
		t.Errorf("inherited error = %v", e)
	}
}

func TestSyncIMInconsistent(t *testing.T) {
	a := startServer(t, 1, shiftedClock{offset: 0, err: time.Millisecond, synced: true})
	b := startServer(t, 2, shiftedClock{offset: time.Hour, err: time.Millisecond, synced: true})
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(2*time.Second, dc)
	ms, err := client.QueryMany([]string{a.Addr().String(), b.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncIM(dc, ms); !errors.Is(err, ErrInconsistent) {
		t.Errorf("error = %v, want ErrInconsistent", err)
	}
}

func TestSyncIMSkipsUnsynchronized(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{synced: false})
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(2*time.Second, dc)
	m, err := client.Query(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncIM(dc, []Measurement{m}); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("error = %v, want ErrNoMeasurements", err)
	}
}

func TestSyncSelectRejectsFalseticker(t *testing.T) {
	good1 := startServer(t, 1, shiftedClock{err: 10 * time.Millisecond, synced: true})
	good2 := startServer(t, 2, shiftedClock{err: 10 * time.Millisecond, synced: true})
	liar := startServer(t, 3, shiftedClock{offset: time.Hour, err: time.Millisecond, synced: true})

	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(2*time.Second, dc)
	ms, err := client.QueryMany([]string{
		good1.Addr().String(), good2.Addr().String(), liar.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SyncSelect(dc, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Falsetickers) != 1 {
		t.Fatalf("falsetickers = %v", sel.Falsetickers)
	}
	now, _, _ := dc.Now()
	if d := now.Sub(time.Now()); math.Abs(d.Seconds()) > 0.5 {
		t.Errorf("clock steered by falseticker: offset %v", d)
	}
}

func TestSyncSelectAllUnsynchronized(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{synced: false})
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(2*time.Second, dc)
	m, err := client.Query(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncSelect(dc, []Measurement{m}); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("error = %v, want ErrNoMeasurements", err)
	}
}

func TestRepeatedSyncKeepsClockCorrect(t *testing.T) {
	// Integration: discipline a clock repeatedly against three servers and
	// verify the reported interval always contains the reference time.
	var addrs []string
	for i := 0; i < 3; i++ {
		srv := startServer(t, uint64(i), shiftedClock{err: 5 * time.Millisecond, synced: true})
		addrs = append(addrs, srv.Addr().String())
	}
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(2*time.Second, dc)
	for round := 0; round < 5; round++ {
		ms, err := client.QueryMany(addrs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SyncIM(dc, ms); err != nil {
			t.Fatal(err)
		}
		now, e, _ := dc.Now()
		truth := time.Now()
		if d := now.Sub(truth); time.Duration(math.Abs(float64(d))) > e+50*time.Millisecond {
			t.Fatalf("round %d: clock off by %v with error bound %v", round, d, e)
		}
	}
}

func TestServerCloseStopsGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	var servers []*Server
	for i := 0; i < 5; i++ {
		srv, err := NewServer("127.0.0.1:0", uint64(i), shiftedClock{synced: true})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for the serve loop, so the goroutine count returns to
	// baseline (allow slack for runtime helpers).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("goroutines leaked: %d -> %d", before, got)
	}
}

func TestSyncerStopJoinsGoroutine(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		dc, err := NewDisciplinedClock(100)
		if err != nil {
			t.Fatal(err)
		}
		syncer, err := NewSyncer(dc, SyncerConfig{
			Servers:  []string{srv.Addr().String()},
			Interval: 10 * time.Millisecond,
			Timeout:  time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		syncer.Stop()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("goroutines leaked: %d -> %d", before, got)
	}
}

func TestClientDefaults(t *testing.T) {
	// A zero-value client (not built by NewClient) works like NewClient(0, nil).
	for _, c := range []*Client{NewClient(0, nil), new(Client)} {
		cfg, s, err := c.checkout()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.timeout != time.Second {
			t.Errorf("default timeout = %v", cfg.timeout)
		}
		if a, b := s.rng.Uint64(), s.rng.Uint64(); a == b {
			t.Error("req IDs not distinct")
		}
		c.checkin(s)
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}
	if got := localNow(nil); got.IsZero() {
		t.Error("localNow returned zero time")
	}
}

func TestQueryManyEmpty(t *testing.T) {
	c := NewClient(time.Second, nil)
	ms, err := c.QueryMany(nil)
	if err != nil || len(ms) != 0 {
		t.Errorf("QueryMany(nil) = %v, %v", ms, err)
	}
}

// TestDisciplinedClockConcurrent: readers share one clock with a writer
// that sets it and runs sync passes over it. Under -race this holds the
// clock's node to its mutex; every synchronized reading contains the host
// time it was taken at.
func TestDisciplinedClockConcurrent(t *testing.T) {
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 50 * time.Millisecond // far above any descheduling here
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := time.Now()
				now, e, synced := dc.Now()
				after := time.Now()
				if synced && (now.Add(-e).After(after) || now.Add(e).Before(before)) {
					t.Errorf("[C-E, C+E] = [%v, %v] misses host time [%v, %v]", now.Add(-e), now.Add(e), before, after)
					return
				}
			}
		}()
	}
	for i := range 200 {
		if i%2 == 0 {
			if err := dc.Set(time.Now(), bound); err != nil {
				t.Error(err)
			}
			continue
		}
		local, _, _ := dc.Now()
		m := Measurement{C: time.Now(), E: bound, LocalRecv: local}
		if _, err := SyncIM(dc, []Measurement{m}); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}
