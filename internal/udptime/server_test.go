package udptime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"disttime/internal/hlc"
	"disttime/internal/obs"
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
// oracle. This test is part of make udp-smoke, under -race.
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

// countingSource steps C by a second on every read and counts the reads.
type countingSource struct {
	base  time.Time
	reads int
}

func (s *countingSource) Now() (time.Time, time.Duration, bool) {
	s.reads++
	return s.base.Add(time.Duration(s.reads) * time.Second), 100 * time.Microsecond, true
}

// scriptIO is a batchIO that plays scripted batches into serve: Recv
// hands over the next one (net.ErrClosed after the last) and Send keeps
// a copy of each reply, batch by batch, while record is set.
type scriptIO struct {
	bt     ioBatch
	script [][][]byte
	next   int
	record bool
	sent   [][][]byte
}

func (f *scriptIO) Batch() *ioBatch { return &f.bt }

func (f *scriptIO) Recv() (int, error) {
	if f.next == len(f.script) {
		return 0, net.ErrClosed
	}
	batch := f.script[f.next]
	f.next++
	return copy(f.bt.recv, batch), nil
}

func (f *scriptIO) Send(n int) (int, error) {
	if f.record {
		var replies [][]byte
		for _, out := range f.bt.send[:n] {
			if len(out) > 0 {
				replies = append(replies, bytes.Clone(out))
			}
		}
		f.sent = append(f.sent, replies)
	}
	return 0, nil
}

func (f *scriptIO) Peer(int) netip.AddrPort         { return netip.AddrPort{} }
func (f *scriptIO) SetReadDeadline(time.Time) error { return nil }
func (f *scriptIO) Close() error                    { return nil }

// TestServeReadsClockOncePerBatch drives serve over scripted batches of
// version-1 and version-3 requests from a source whose C steps on every
// read: the source is read once per batch, not once per request; every
// reply of a batch carries that one C and consecutive batches carry
// different ones; the batch-fill histogram saw each batch once; and the
// whole loop — Recv to Send, the per-batch read and Observe included —
// allocates nothing.
func TestServeReadsClockOncePerBatch(t *testing.T) {
	sizes := []int{64, 1, 17}
	io := &scriptIO{record: true}
	io.bt = newIOBatch(64)
	id, total := uint64(0), 0
	for _, size := range sizes {
		batch := make([][]byte, size)
		for i := range batch {
			id++
			if i%2 == 0 {
				batch[i] = wire.AppendRequest(nil, wire.Request{ReqID: id})
			} else {
				batch[i] = wire.AppendRequestHLC(nil, wire.RequestHLC{ReqID: id, TS: hlc.Timestamp{Wall: int64(id), Node: 9}})
			}
		}
		io.script = append(io.script, batch)
		total += size
	}
	src := &countingSource{base: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	s := &Server{id: 1, src: src, hlc: hlc.New(1)}
	WithServerObservability(reg).applyServer(s)
	serve := func() {
		io.next = 0
		s.loops.Add(1)
		s.serve(io)
	}

	serve()
	if src.reads != len(sizes) {
		t.Fatalf("source read %d times over %d batches of %d requests, want once per batch", src.reads, len(sizes), total)
	}
	if len(io.sent) != len(sizes) {
		t.Fatalf("%d batches sent, want %d", len(io.sent), len(sizes))
	}
	for b, replies := range io.sent {
		if len(replies) != sizes[b] {
			t.Fatalf("batch %d: %d replies, want %d", b, len(replies), sizes[b])
		}
		want := src.base.Add(time.Duration(b+1) * time.Second)
		for i, raw := range replies {
			var resp wire.Response
			var err error
			if len(raw) == wire.ResponseHLCSize {
				var r3 wire.ResponseHLC
				r3, err = wire.ParseResponseHLC(raw)
				resp = r3.Response
			} else {
				resp, err = wire.ParseResponse(raw)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Clock.Equal(want) {
				t.Fatalf("batch %d reply %d: C = %v, want the batch's one reading %v", b, i, resp.Clock, want)
			}
		}
	}
	fill := reg.LogHistogram("udptime_server_batch_fill")
	if fill.Count() != uint64(len(sizes)) || fill.Sum() != float64(total) {
		t.Fatalf("batch fill observed %d batches summing to %v, want %d summing to %d",
			fill.Count(), fill.Sum(), len(sizes), total)
	}

	io.record = false
	if allocs := testing.AllocsPerRun(50, serve); allocs != 0 {
		t.Fatalf("serving %d batches allocates %v times, want 0", len(sizes), allocs)
	}
}

// TestServeBatchBench holds the pump cmd/bench times to what it claims:
// every request of the batch answered, and nothing allocated on the way
// (the clock read, Server.respond and the version-1 codec under it).
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
// the cold path, and a malformed datagram. Each reply is held byte for
// byte to the wire encoding of the source's reading with its request's
// ID, the first 40 bytes of a version-3 reply included, from a
// synchronized source and an unsynchronized one; a source reporting a
// negative E gets no reply at all, and every request of its batch is
// counted malformed.
func TestRespondMixedBatchAllocs(t *testing.T) {
	const batch = 32
	c := time.Unix(0, 1_700_000_000_123_456_789)
	adv, err := wire.AppendAdvertise(nil, 1, []wire.MemberEntry{{Addr: "10.0.0.1:3123", Gen: 1, Status: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  fixedSource
	}{
		{"synchronized", fixedSource{c: c, e: 250 * time.Microsecond, synced: true}},
		{"unsynchronized", fixedSource{c: c, e: time.Second}},
		{"negative E", fixedSource{c: c, e: -time.Microsecond, synced: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{id: 7, src: tc.src, hlc: hlc.New(7),
				advertise: func(*net.UDPAddr, []wire.MemberEntry) {}}
			bt := newIOBatch(batch)
			requests := 0
			for i := range bt.recv {
				id := uint64(i)<<40 | 0xfeed
				switch i % 4 {
				case 0:
					bt.recv[i] = wire.AppendRequest(nil, wire.Request{ReqID: id})
					requests++
				case 1, 2:
					bt.recv[i] = wire.AppendRequestHLC(nil, wire.RequestHLC{ReqID: id, TS: hlc.Timestamp{Wall: int64(i), Node: 9}})
					requests++
				case 3:
					bt.recv[i] = adv[:len(adv)>>(i/4%2)] // whole, or cut short
				}
			}
			answered := tc.src.e >= 0
			want, wantBad := requests, 0
			if !answered {
				want, wantBad = 0, requests
			}
			c, maxErr, synced := tc.src.Now()
			allocs := testing.AllocsPerRun(100, func() {
				if got := s.respond(&bt, batch, c, maxErr, synced); got != want {
					t.Fatalf("respond prepared %d replies, want %d", got, want)
				}
			})
			if allocs != 0 {
				t.Fatalf("respond allocates %v times per mixed batch, want 0", allocs)
			}
			before := s.MalformedDatagrams()
			s.respond(&bt, batch, c, maxErr, synced)
			if got := s.MalformedDatagrams() - before; got != uint64(wantBad) {
				t.Fatalf("responder counted %d malformed datagrams in a batch, want %d; advertisements are the cold path's to judge", got, wantBad)
			}
			reading := wire.Response{ServerID: s.id, Clock: tc.src.c, MaxError: tc.src.e, Unsynchronized: !tc.src.synced}
			for i, in := range bt.recv {
				got := bt.send[i]
				if !answered || i%4 == 3 {
					if len(got) != 0 {
						t.Fatalf("slot %d: reply %x, want none", i, got)
					}
					continue
				}
				reading.ReqID = binary.BigEndian.Uint64(in[8:16])
				ref, err := wire.AppendResponse(nil, reading)
				if i%4 != 0 {
					ref, err = wire.AppendResponseHLC(nil, wire.ResponseHLC{Response: reading})
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ref) || !bytes.Equal(got[:wire.ResponseSize], ref[:wire.ResponseSize]) {
					t.Fatalf("slot %d: reply %x, want %x", i, got, ref)
				}
				if len(got) == wire.ResponseHLCSize {
					if _, err := hlc.ParseTimestamp(got[wire.ResponseSize:]); err != nil {
						t.Fatalf("slot %d: stamp %x: %v", i, got[wire.ResponseSize:], err)
					}
				}
			}
		})
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
