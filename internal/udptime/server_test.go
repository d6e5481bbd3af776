package udptime

import (
	"errors"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"disttime/internal/wire"
)

// batchBackend is NewBatchServer under cfg in the shape of NewServer.
func batchBackend(cfg BatchConfig) newServerFunc {
	return func(addr string, id uint64, src ClockSource, opts ...ServerOption) (*Server, error) {
		return NewBatchServer(addr, id, src, cfg, opts...)
	}
}

// perPacket is one shard on the per-packet backend: off Linux what
// every constructor serves on, on Linux only the reference the batch
// backend is held to.
func perPacket(addr string, id uint64, src ClockSource, opts ...ServerOption) (*Server, error) {
	return newServer(addr, id, src, BatchConfig{Shards: 1, Batch: 1}, newPacketConn, opts)
}

type backend struct {
	name string
	new  newServerFunc
}

// backends are the two backends as the lifecycle, version-3 and
// cluster tests run them: one per-packet loop, and four shards on the
// platform's batch backend.
var backends = []backend{
	{"per-packet", perPacket},
	{"batch", batchBackend(BatchConfig{Shards: 4, Batch: 16})},
}

// TestPacketConnOneReceiveBuffer holds the per-packet backend to the
// one receive buffer its Recv fills, whatever its size: at Batch: 64 it
// keeps 64 send slots for the load generator's windows and about 10 KiB
// in all, not a 2 KiB buffer a slot.
func TestPacketConnOneReceiveBuffer(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := newPacketConn(conn, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	c := bc.(*packetBatchConn)
	slice := int(unsafe.Sizeof([]byte(nil)))
	total := cap(c.rbuf) + (cap(c.bt.recv)+cap(c.bt.send))*slice + cap(c.bt.train) +
		cap(c.peers)*int(unsafe.Sizeof(netip.AddrPort{}))
	if len(c.bt.send) != 64 || total > 16<<10 {
		t.Fatalf("a per-packet conn at Batch 64: %d send slots, %d bytes retained; want 64 and at most 16 KiB", len(c.bt.send), total)
	}
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

// TestBatchServerCloseAtOnceLeavesNoLoop closes a four-shard server the
// moment it is built, when some serving loops may not have run yet: Close
// must still have waited for every one of them. It holds the loops.Add in
// newServer, ahead of the go statement; with the Add inside serve, Wait
// can pass a loop that has not counted itself, and nothing else notices
// (DESIGN.md §10).
func TestBatchServerCloseAtOnceLeavesNoLoop(t *testing.T) {
	src, err := NewSystemClock(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		srv, err := NewBatchServer("127.0.0.1:0", 1, src, BatchConfig{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if g := servingLoop(); g != "" {
			t.Fatalf("round %d: a serving loop outlived Close:\n%s", i, g)
		}
	}
}

// servingLoop returns the stack of a goroutine that is in Server.serve
// and has not reached its deferred loops.Done, or "" when there is none.
// A loop that Close has waited for can still be seen on its way out, and
// is told apart: it is inside the WaitGroup, or serve is its innermost
// frame at a nonzero offset (a loop that never ran sits at serve's entry,
// printed without one).
func servingLoop() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	const serve = "disttime/internal/udptime.(*Server).serve("
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, serve) || strings.Contains(g, "sync.(*WaitGroup).") {
			continue
		}
		lines := strings.Split(g, "\n")
		if len(lines) > 2 && strings.HasPrefix(lines[1], serve) && strings.Contains(lines[2], " +0x") {
			continue
		}
		return g
	}
	return ""
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

// TestBatchServerDirectRead pins what reading per batch means for a
// lone request: the batch backend reads the source at serve time, so a
// source update is visible in the very next reply with no widening and
// no staleness — including an error bound that narrows.
func TestBatchServerDirectRead(t *testing.T) {
	src := &steppedSource{}
	c0 := time.Unix(0, 1_650_000_000_000_000_000)
	src.set(c0, 100*time.Microsecond, true)
	srv, err := NewBatchServer("127.0.0.1:0", 3, src, BatchConfig{Shards: 1})
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

// TestBatchedReadingContained is the paper's oracle on both serving
// backends, failing instead of counting: one shard under a 64-deep
// closed loop, a lone query every millisecond beside it from before the
// load starts until after it ends (so probes ride in full batches and
// in batches of one), and every answer must reach back to its own
// receive instant and forward to its own send instant on the host clock
// the server also reads. The source's error is fixed (zero drift) and
// small, so a reading taken anywhere but between a batch's Recv and its
// Send misses, and a reply that carries anything but the source's E has
// been widened. On the batch backend the load's windows arrive as GRO
// trains where the kernel has it, so whole trains are held to the
// oracle.
func TestBatchedReadingContained(t *testing.T) {
	for _, b := range []backend{
		{"batch", batchBackend(BatchConfig{Shards: 1, Batch: 64})},
		{"per-packet", perPacket},
	} {
		t.Run(b.name, func(t *testing.T) { testReadingContained(t, b.new) })
	}
}

func testReadingContained(t *testing.T, newServer newServerFunc) {
	const initialErr = 10 * time.Microsecond
	src, err := NewSystemClock(initialErr, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer("127.0.0.1:0", 3, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	cl := NewClient(time.Second, nil)
	defer cl.Close()

	probes := 0
	probe := func() {
		send := time.Now()
		m, err := cl.Query(addr)
		recv := time.Now()
		if err != nil {
			t.Fatal(err)
		}
		probes++
		if m.E != initialErr {
			t.Fatalf("probe %d: MaxError %v, want the source's %v exactly", probes, m.E, initialErr)
		}
		if lo, hi := m.C.Add(-m.E), m.C.Add(m.E); lo.After(recv) || hi.Before(send) {
			t.Fatalf("probe %d: [%v, %v] misses the exchange [%v, %v]", probes, lo, hi, send, recv)
		}
		time.Sleep(time.Millisecond)
	}
	for range 20 {
		probe()
	}
	loadDone := make(chan LoadResult, 1)
	go func() {
		res, _ := RunLoad(LoadConfig{Addr: addr, Window: 64, Batch: 64, Duration: 400 * time.Millisecond})
		loadDone <- res
	}()
	before := probes
	for loaded := false; !loaded; {
		select {
		case res := <-loadDone:
			if res.Received == 0 || res.Timeouts+res.Errors != 0 {
				t.Fatalf("load beside the probes: %+v", res)
			}
			loaded = true
		default:
			probe()
		}
	}
	if underLoad := probes - before; underLoad < 3 {
		t.Fatalf("only %d probes answered beside 400 ms of load", underLoad)
	}
	for range 20 {
		probe()
	}
}

// BenchmarkRespond times the responder over a full batch of 64
// version-1 requests, per request: the pump cmd/bench reads as
// udptime.responder.ns_per_req.
func BenchmarkRespond(b *testing.B) {
	const batch = 64
	pump := NewServeBatchBench(batch)
	b.ReportAllocs()
	for range b.N {
		pump()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/req")
}

// BenchmarkNewServerClose is what a server costs to build and tear down
// when it never sees a batch: a NewServer bound on the loopback, then
// closed.
func BenchmarkNewServerClose(b *testing.B) {
	src := shiftedClock{synced: true}
	b.ReportAllocs()
	for range b.N {
		srv, err := NewServer("127.0.0.1:0", 1, src)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
