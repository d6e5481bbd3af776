package udptime

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/wire"
)

// batchBackend is NewBatchServer under cfg in the shape of NewServer.
func batchBackend(cfg BatchConfig) newServerFunc {
	return func(addr string, id uint64, src ClockSource, opts ...ServerOption) (*Server, error) {
		return NewBatchServer(addr, id, src, cfg, opts...)
	}
}

type backend struct {
	name string
	new  newServerFunc
}

// backends are the two constructors as the lifecycle, version-3 and
// cluster tests run them: one per-packet loop, and four shards on the
// platform's batch backend behind a tick cache.
var backends = []backend{
	{"per-packet", NewServer},
	{"batch", batchBackend(BatchConfig{Shards: 4, Batch: 16})},
}

// TestBatchServerConcurrentClose hammers Close from many goroutines
// while a load run still has batches in flight: every Close must return
// the same result, the serving loops must drain, and nothing may hang
// or race (this test is part of the -race pass over RACE_PKGS).
func TestBatchServerConcurrentClose(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { testConcurrentClose(t, b.new) })
	}
}

func testConcurrentClose(t *testing.T, newServer newServerFunc) {
	src, err := NewSystemClock(time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer("127.0.0.1:0", 3, src)
	if err != nil {
		t.Fatal(err)
	}

	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		// The run outlives the Close below, so the shards are torn down
		// mid-traffic; the load side tolerates the resulting timeouts.
		_, _ = RunLoad(LoadConfig{
			Addr:     srv.Addr().String(),
			Conns:    2,
			Window:   32,
			Duration: 300 * time.Millisecond,
			Timeout:  100 * time.Millisecond,
		})
	}()
	time.Sleep(50 * time.Millisecond) // let traffic build

	const closers = 8
	results := make([]error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = srv.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range results {
		if !errors.Is(err, results[0]) {
			t.Fatalf("closer %d returned %v, closer 0 returned %v", i, err, results[0])
		}
	}
	<-loadDone
}

// TestBatchServerDoubleClose pins Close idempotence on an idle server.
func TestBatchServerDoubleClose(t *testing.T) {
	src, err := NewSystemClock(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			srv, err := b.new("127.0.0.1:0", 1, src)
			if err != nil {
				t.Fatal(err)
			}
			first := srv.Close()
			second := srv.Close()
			if first != nil || second != nil {
				t.Fatalf("Close returned %v, then %v", first, second)
			}
		})
	}
}

// TestBatchServerBindBusyPort proves a bind failure surfaces as a clean
// constructor error — no hang, no leaked shard — both for a plain bind
// and for the SO_REUSEPORT path against a socket that was bound without
// the option.
func TestBatchServerBindBusyPort(t *testing.T) {
	squatter, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	addr := squatter.LocalAddr().String()
	src, err := NewSystemClock(0, 50)
	if err != nil {
		t.Fatal(err)
	}

	plain := backend{"batch one shard", batchBackend(BatchConfig{Shards: 1})} // no SO_REUSEPORT
	for _, b := range append([]backend{plain}, backends...) {
		done := make(chan error, 1)
		go func() {
			srv, err := b.new(addr, 1, src)
			if err == nil {
				srv.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s: bind on busy %s succeeded, want error", b.name, addr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: constructor hung on busy port", b.name)
		}
	}
}

// TestBatchServerServes is a plain end-to-end check of the multi-shard
// path: requests answered, counters advancing, Close after traffic clean.
func TestBatchServerServes(t *testing.T) {
	src, err := NewSystemClock(time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchServer("127.0.0.1:0", 9, src, BatchConfig{Shards: 2, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2", got)
	}
	res, err := RunLoad(LoadConfig{
		Addr:     srv.Addr().String(),
		Conns:    1,
		Window:   8,
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatal("no replies received")
	}
	if srv.Requests() < res.Received {
		t.Fatalf("server counted %d requests, client received %d", srv.Requests(), res.Received)
	}
}

// queryOne sends a single request and returns the parsed reply.
func queryOne(t *testing.T, addr string, id uint64) wire.Response {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendRequest(nil, wire.Request{ReqID: id})); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, maxDatagram)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ParseResponse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchServerDirectRead pins the Tick < 0 parity mode's defining
// behavior: with the cache disabled every reply reads the source at
// serve time, so a source update is visible in the very next reply with
// no per-tick widening and no frozen-snapshot staleness — including an
// error bound that narrows, which a cached reading can never do within
// a tick.
func TestBatchServerDirectRead(t *testing.T) {
	src := &steppedSource{}
	c0 := time.Unix(0, 1_650_000_000_000_000_000)
	src.set(c0, 100*time.Microsecond, true)
	srv, err := NewBatchServer("127.0.0.1:0", 3, src, BatchConfig{Shards: 1, Tick: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp := queryOne(t, srv.Addr().String(), 21)
	if !resp.Clock.Equal(c0) || resp.MaxError != 100*time.Microsecond || resp.Unsynchronized {
		t.Fatalf("first reply <%v, %v, unsync=%v>, want exact fresh reading <%v, %v, unsync=false>",
			resp.Clock, resp.MaxError, resp.Unsynchronized, c0, 100*time.Microsecond)
	}

	c1 := c0.Add(time.Hour)
	src.set(c1, 75*time.Microsecond, false)
	resp = queryOne(t, srv.Addr().String(), 22)
	if !resp.Clock.Equal(c1) || resp.MaxError != 75*time.Microsecond || !resp.Unsynchronized {
		t.Fatalf("second reply <%v, %v, unsync=%v>, want immediate narrowed reading <%v, %v, unsync=true>",
			resp.Clock, resp.MaxError, resp.Unsynchronized, c1, 75*time.Microsecond)
	}
}

// TestServerRefreshesStaleSnapshot is the containment guard: the tick
// cache's refresher is only as punctual as the scheduler, so here it
// does not run at all. After several idle ticks the published snapshot
// is far staler than its one-tick widening; the serving loop must
// notice and refresh before it answers, so that the reply's interval
// still reaches forward to the instant the request was sent.
func TestServerRefreshesStaleSnapshot(t *testing.T) {
	const tick = 20 * time.Millisecond
	src, err := NewSystemClock(0, 50) // the host clock, the oracle below
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchServer("127.0.0.1:0", 3, src, BatchConfig{Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.cache.Stop() // a refresher that never gets the CPU
	time.Sleep(5 * tick)

	send := time.Now()
	resp := queryOne(t, srv.Addr().String(), 1)
	recv := time.Now()
	if lo, hi := resp.Clock.Add(-resp.MaxError), resp.Clock.Add(resp.MaxError); hi.Before(send) || lo.After(recv) {
		t.Fatalf("reply [%v, %v] misses the exchange [%v, %v]: snapshot %v stale at send",
			lo, hi, send, recv, send.Sub(resp.Clock))
	}
}

// TestServeBatchBench holds the pump cmd/bench times to what it claims:
// every request of the batch answered, and nothing allocated on the way
// (Server.respond, TickCache.Now and the version-1 codec under them).
func TestServeBatchBench(t *testing.T) {
	const batch = 64
	pump := NewServeBatchBench(batch)
	if allocs := testing.AllocsPerRun(100, func() {
		if got := pump(); got != batch {
			t.Fatalf("pump answered %d of %d requests", got, batch)
		}
	}); allocs != 0 {
		t.Fatalf("serving a batch allocates %v times, want 0", allocs)
	}
}

// TestRespondMixedBatchAllocs pins the responder at zero allocations
// over a batch that mixes the wire versions: version-1 and version-3
// requests (the latter through hlc.Update), an advertisement left for
// the cold path, and a malformed datagram.
func TestRespondMixedBatchAllocs(t *testing.T) {
	const batch = 32
	src, err := NewSystemClock(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{id: 1, src: newTickCacheStopped(src, 0, 50), hlc: hlc.New(1),
		advertise: func(*net.UDPAddr, []wire.MemberEntry) {}}
	adv, err := wire.AppendAdvertise(nil, 1, []wire.MemberEntry{{Addr: "10.0.0.1:3123", Gen: 1, Status: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bt, rbufs := newIOBatch(batch)
	want := 0
	for i := range rbufs {
		id := uint64(i) + 1
		switch i % 4 {
		case 0:
			bt.recv[i] = wire.AppendRequest(rbufs[i][:0], wire.Request{ReqID: id})
			want++
		case 1, 2:
			bt.recv[i] = wire.AppendRequestHLC(rbufs[i][:0], wire.RequestHLC{ReqID: id, TS: hlc.Timestamp{Wall: int64(i), Node: 9}})
			want++
		case 3:
			bt.recv[i] = append(rbufs[i][:0], adv[:len(adv)>>(i/4%2)]...) // whole, or cut short
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got := s.respond(&bt, batch); got != want {
			t.Fatalf("respond prepared %d replies, want %d", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("respond allocates %v times per mixed batch, want 0", allocs)
	}
	for i := range rbufs {
		wantLen := [4]int{wire.ResponseSize, wire.ResponseHLCSize, wire.ResponseHLCSize, 0}[i%4]
		if len(bt.send[i]) != wantLen {
			t.Fatalf("slot %d: reply of %d bytes, want %d", i, len(bt.send[i]), wantLen)
		}
	}
	if got := s.MalformedDatagrams(); got != 0 {
		t.Fatalf("responder counted %d malformed datagrams; advertisements are the cold path's to judge", got)
	}
}
