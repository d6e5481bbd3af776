package udptime

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// A shard serves in one loop, Recv → src.Now() → respond → Send, and
// rule MM-1 on a real socket is that loop's one reading lying between
// every request's arrival and its reply. servingRows holds the loop's
// checks that feed it requests and hold the replies to exact counts or
// to a reference, one row each, run by the test its test field names
// (the real-socket oracle, TestBatchedReadingContained, stays apart):
//
//   - A scripted row plays its train through Server.serve on no socket
//     (scriptIO) from a clockSource, and pins one pass's counts inline
//     (counts). Every reply must also equal reference's for its batch's
//     one reading: the source's (b+1)-th, for batch b.
//   - A loopback row sends the corpus of all three wire versions to a
//     live server over real sockets, one datagram at a time or as
//     same-length trains, and holds every reply to reference and the
//     server's requests, malformed and advertisements-handled counts to
//     the corpus. Rows over several sockets reach the server in the
//     kernel's order, so their version-3 replies are compared with the
//     HLC logical counter masked, and their request walls stay below
//     the server's own, which keeps the stamped wall independent of
//     order. Two backends held to one reference answer alike, so no row
//     compares backends.
//
// A scripted row's counts are positional, in the order of counts'
// fields: replies, malformed, recvs, sends, reads, trainBytes, fills,
// fillSum, allocs.
var servingRows = []servingRow{
	// NewServeBatchBench(64)'s pump, the responder stage cmd/bench
	// times, and serve over the batch it pumps.
	{test: "TestServeBatchBench", name: "pump", pump: true, want: counts{64, 0, 0, 0, 0, 0, 0, 0, 0}},
	{test: "TestServeBatchBench", name: "synchronized", train: v1Batch, src: synchronized, want: counts{64, 0, 2, 1, 1, 2560, 1, 64, 0}},
	{test: "TestServeBatchBench", name: "unsynchronized", train: v1Batch, src: unsynchronized, want: counts{64, 0, 2, 1, 1, 2560, 1, 64, 0}},
	{test: "TestServeBatchBench", name: "negative E", train: v1Batch, src: negativeE, want: counts{0, 64, 2, 0, 1, 0, 1, 64, 0}},
	{test: "TestServeBatchBench", name: "stepping", train: v1Batch, src: stepping, want: counts{64, 0, 2, 1, 1, 2560, 1, 64, 0}},

	// Three batches, one clock read each. The whole loop allocates
	// nothing.
	{test: "TestServeReadsClockOncePerBatch", name: "synchronized", train: v1v3Batches, src: synchronized, want: counts{82, 0, 4, 3, 3, 3920, 3, 82, 0}},
	{test: "TestServeReadsClockOncePerBatch", name: "unsynchronized", train: v1v3Batches, src: unsynchronized, want: counts{82, 0, 4, 3, 3, 3920, 3, 82, 0}},
	{test: "TestServeReadsClockOncePerBatch", name: "negative E", train: v1v3Batches, src: negativeE, want: counts{0, 82, 4, 0, 3, 0, 3, 82, 0}},
	{test: "TestServeReadsClockOncePerBatch", name: "stepping", train: v1v3Batches, src: stepping, want: counts{82, 0, 4, 3, 3, 3920, 3, 82, 0}},

	// The mixed batch with the advertise handler installed: respond
	// leaves the eight advertisements to the cold path, which hands them
	// to the handler; parsing them is the pass's only allocation, three
	// apiece.
	{test: "TestRespondMixedBatchAllocs", name: "synchronized", train: mixedBatch, src: synchronized, handler: true, want: counts{24, 0, 2, 1, 1, 1216, 1, 32, 24}},
	{test: "TestRespondMixedBatchAllocs", name: "unsynchronized", train: mixedBatch, src: unsynchronized, handler: true, want: counts{24, 0, 2, 1, 1, 1216, 1, 32, 24}},
	{test: "TestRespondMixedBatchAllocs", name: "negative E", train: mixedBatch, src: negativeE, handler: true, want: counts{0, 24, 2, 0, 1, 0, 1, 32, 24}},
	{test: "TestRespondMixedBatchAllocs", name: "stepping", train: mixedBatch, src: stepping, handler: true, want: counts{24, 0, 2, 1, 1, 1216, 1, 32, 24}},

	// One shard fed from one socket, with no handler: the advertisements
	// are malformed datagrams.
	{test: "TestServingMatchesWireReference", name: "per-packet", newServer: perPacket, socks: 1},
	{test: "TestServingMatchesWireReference", name: "per-packet, trains", newServer: perPacket, socks: 1, trains: true},
	{test: "TestServingMatchesWireReference", name: "batch", newServer: NewServer, socks: 1},
	{test: "TestServingMatchesWireReference", name: "batch, trains", newServer: NewServer, socks: 1, trains: true},

	// The handler installed on one shard, and four batch shards against
	// the per-packet loop over eight sockets. Each batch server is
	// fresh, so on Linux its shards start idle, and a shard the corpus
	// queues datagrams at loads mid-corpus.
	{test: "TestDifferentialServing", name: "one shard", newServer: NewServer, socks: 1, handler: true},
	{test: "TestDifferentialServing", name: "one shard, trains", newServer: NewServer, socks: 1, handler: true, trains: true},
	{test: "TestDifferentialServing", name: "per-packet, handler", newServer: perPacket, socks: 1, handler: true},
	{test: "TestDifferentialServing", name: "per-packet, handler, trains", newServer: perPacket, socks: 1, handler: true, trains: true},
	{test: "TestDifferentialServing", name: "four shards", newServer: batchBackend(BatchConfig{Shards: 4}), socks: 8},
	{test: "TestDifferentialServing", name: "four shards, trains", newServer: batchBackend(BatchConfig{Shards: 4}), socks: 8, trains: true},
	{test: "TestDifferentialServing", name: "per-packet, eight sockets", newServer: perPacket, socks: 8},
	{test: "TestDifferentialServing", name: "per-packet, eight sockets, trains", newServer: perPacket, socks: 8, trains: true},
}

// servingTests are the entry points of servingRows.
var servingTests = []string{"TestServeBatchBench", "TestServeReadsClockOncePerBatch",
	"TestRespondMixedBatchAllocs", "TestServingMatchesWireReference", "TestDifferentialServing"}

func TestServeBatchBench(t *testing.T)             { runServingRows(t) }
func TestServeReadsClockOncePerBatch(t *testing.T) { runServingRows(t) }
func TestRespondMixedBatchAllocs(t *testing.T)     { runServingRows(t) }
func TestServingMatchesWireReference(t *testing.T) { runServingRows(t) }
func TestDifferentialServing(t *testing.T)         { runServingRows(t) }

type servingRow struct {
	test, name string
	handler    bool // the advertise handler is installed

	// A scripted row: train's batches through serve, read from src.
	// With pump set the row runs NewServeBatchBench(64)'s pump instead,
	// which has no Recv, Send or source to count: it pins replies and
	// allocations.
	train [][][]byte
	src   clockSpec
	pump  bool
	want  counts

	// A loopback row: the corpus sent to the server newServer builds,
	// dealt over socks sockets, as trains or one datagram at a time.
	newServer newServerFunc
	socks     int
	trains    bool
}

// counts are a scripted row's columns, for one pass of its train: the
// requests answered, the datagrams counted malformed, the calls to Recv
// (the closing one included) and to Send, the clock reads, the bytes of
// bt.train at each Send summed, the batch-fill histogram's count and
// sum, and the allocations of a pass.
type counts struct {
	replies, malformed, recvs, sends, reads, trainBytes, fills, fillSum, allocs int
}

// serverID is the ID of every server of the table.
const serverID = 42

// The sources the rows read: C fixed at served, or stepping by a second
// a read.
var (
	served         = time.Unix(0, 1_700_000_000_123_456_789)
	synchronized   = clockSpec{c: served, e: 250 * time.Microsecond, synced: true}
	unsynchronized = clockSpec{c: served, e: time.Second}
	negativeE      = clockSpec{c: served, e: -time.Microsecond, synced: true}
	stepping       = clockSpec{c: served, e: 100 * time.Microsecond, synced: true, step: time.Second}
)

// The scripted trains.
var (
	// v1Batch is one batch of the 64 version-1 requests
	// NewServeBatchBench serves.
	v1Batch = [][][]byte{newRequests(1, 64, func(int) bool { return false })}
	// v1v3Batches is batches of 64, 1 and 17 requests, version 1 and
	// version 3 in turn.
	v1v3Batches = [][][]byte{
		newRequests(1, 64, func(i int) bool { return i%2 == 1 }),
		newRequests(65, 1, func(i int) bool { return i%2 == 1 }),
		newRequests(66, 17, func(i int) bool { return i%2 == 1 }),
	}
	// mixedBatch is one batch of 32: in every four slots a version-1
	// request, two version-3 requests and an advertisement. The IDs
	// fill all eight bytes. (A malformed datagram or a cut advertisement
	// fails its parse through fmt, whose printer pool -race drains at
	// random, so its allocations do not pin: the loopback rows' corpus
	// carries those.)
	mixedBatch = [][][]byte{func() [][]byte {
		adv, err := wire.AppendAdvertise(nil, 1, []wire.MemberEntry{{Addr: "10.0.0.1:3123", Gen: 1, Status: 1}})
		if err != nil {
			panic(err)
		}
		batch := make([][]byte, 32)
		for i := range batch {
			batch[i] = adv
			if i%4 != 3 {
				batch[i] = newRequest(uint64(i)<<40|0xfeed, i%4 != 0)
			}
		}
		return batch
	}()}
)

// newRequest is request id in version 1, or in version 3 stamped with wall
// id at node 9.
func newRequest(id uint64, v3 bool) []byte {
	if v3 {
		return wire.AppendRequestHLC(nil, wire.RequestHLC{ReqID: id, TS: hlc.Timestamp{Wall: int64(id), Node: 9}})
	}
	return wire.AppendRequest(nil, wire.Request{ReqID: id})
}

// newRequests is n requests from ID first on, slot i in version 3 when
// v3(i).
func newRequests(first uint64, n int, v3 func(int) bool) [][]byte {
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = newRequest(first+uint64(i), v3(i))
	}
	return batch
}

// clockSpec is a clockSource's reading: C starts at c and steps by step
// on every read after the first (zero: C is fixed); E and synced stay.
type clockSpec struct {
	c      time.Time
	e      time.Duration
	synced bool
	step   time.Duration
}

// clockSource is the tests' one scripted ClockSource: it reads its
// clockSpec and counts the reads, from any number of shards.
type clockSource struct {
	clockSpec
	reads atomic.Int64
}

func (s *clockSource) Now() (time.Time, time.Duration, bool) {
	return s.at(s.reads.Add(1)), s.e, s.synced
}

// at is C at the k-th read.
func (s *clockSource) at(k int64) time.Time { return s.c.Add(time.Duration(k-1) * s.step) }

// scriptIO is the one scripted batchIO. Recv copies the next batch of
// script into bt's receive slots (net.ErrClosed after the last), and
// Send passes the replies on to conn, a real backend, or to no socket
// when conn is nil. It counts the calls to Recv and Send and the bytes
// of bt.train at each Send, and while record is set keeps a copy of
// each batch's replies. Over a real backend's own slots, a script of the
// batch the backend has received replays it.
type scriptIO struct {
	conn   batchIO
	bt     *ioBatch
	script [][][]byte
	next   int

	recvs, sends, trainBytes int
	record                   bool
	sent                     []sentBatch
}

// sentBatch is what Send was handed for script batch batch: a copy of
// each slot's reply, nil where there was none.
type sentBatch struct {
	batch   int
	replies [][]byte
}

func (f *scriptIO) Batch() *ioBatch { return f.bt }

func (f *scriptIO) Recv() (int, error) {
	f.recvs++
	if f.next == len(f.script) {
		return 0, net.ErrClosed
	}
	f.next++
	return copy(f.bt.recv, f.script[f.next-1]), nil
}

func (f *scriptIO) Send(n int) (int, error) {
	f.sends++
	f.trainBytes += len(f.bt.train)
	if f.record {
		replies := make([][]byte, n)
		for i, out := range f.bt.send[:n] {
			if len(out) > 0 {
				replies[i] = bytes.Clone(out)
			}
		}
		f.sent = append(f.sent, sentBatch{f.next - 1, replies})
	}
	if f.conn == nil {
		return 0, nil
	}
	return f.conn.Send(n)
}

func (f *scriptIO) Peer(i int) netip.AddrPort {
	if f.conn == nil {
		return netip.AddrPort{}
	}
	return f.conn.Peer(i)
}

func (f *scriptIO) SetReadDeadline(time.Time) error { return nil }
func (f *scriptIO) Close() error                    { return nil }

// reference is the reply a server owes datagram in when its reading is
// r, built from wire and ref, a hybrid logical clock of the server's
// ID, alone, without respond: the encoding of r with the request's ID,
// and for a version-3 request the stamp ref issues when it takes the
// request at wall C+E. Anything but a well-formed request, and every
// datagram of a reading with a negative E, is owed nothing (nil), and
// ref does not take it.
func reference(ref *hlc.Clock, r wire.Response, in []byte) []byte {
	if r.MaxError < 0 {
		return nil
	}
	// wire refuses only a negative E, so the encodes below cannot fail.
	if req, err := wire.ParseRequest(in); err == nil {
		r.ReqID = req.ReqID
		out, _ := wire.AppendResponse(nil, r)
		return out
	}
	req, err := wire.ParseRequestHLC(in)
	if err != nil {
		return nil
	}
	r.ReqID = req.ReqID
	ts := ref.Update(r.Clock.Add(r.MaxError).UnixNano(), req.TS)
	out, _ := wire.AppendResponseHLC(nil, wire.ResponseHLC{Response: r, TS: ts})
	return out
}

// runServingRows runs the rows of servingRows that name t, one subtest
// each.
func runServingRows(t *testing.T) {
	ran := 0
	for _, r := range servingRows {
		if !slices.Contains(servingTests, r.test) {
			t.Fatalf("row %q: no entry point named %s", r.name, r.test)
		}
		if r.test != t.Name() {
			continue
		}
		ran++
		t.Run(r.name, func(t *testing.T) {
			switch {
			case r.pump:
				runPump(t, r)
			case r.newServer != nil:
				runLoopback(t, r)
			default:
				runScripted(t, r)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no rows")
	}
}

func runPump(t *testing.T, r servingRow) {
	pump := NewServeBatchBench(64)
	got := counts{replies: pump()}
	got.allocs = int(testing.AllocsPerRun(50, func() { pump() }))
	if got != r.want {
		t.Fatalf("counts %+v, want %+v", got, r.want)
	}
}

func runScripted(t *testing.T, r servingRow) {
	src := &clockSource{clockSpec: r.src}
	reg := obs.NewRegistry()
	s := &Server{id: serverID, src: src, hlc: hlc.New(serverID)}
	WithServerObservability(reg).applyServer(s)
	if r.handler {
		s.advertise = func(*net.UDPAddr, []wire.MemberEntry) {}
	}
	bt := newIOBatch(64)
	io := &scriptIO{bt: &bt, script: r.train, record: true}
	pass := func() {
		io.next = 0
		s.loops.Add(1)
		s.serve(io)
	}

	pass()
	fill := reg.LogHistogram("udptime_server_batch_fill")
	got := counts{
		replies: int(s.Requests()), malformed: int(s.MalformedDatagrams()),
		recvs: io.recvs, sends: io.sends, reads: int(src.reads.Load()), trainBytes: io.trainBytes,
		fills: int(fill.Count()), fillSum: int(fill.Sum()),
	}
	io.record = false
	got.allocs = int(testing.AllocsPerRun(50, pass))
	if got != r.want {
		t.Errorf("counts %+v, want %+v", got, r.want)
	}

	ref, sent := hlc.New(serverID), io.sent
	for b, batch := range r.train {
		reading := wire.Response{ServerID: serverID, Clock: src.at(int64(b) + 1), MaxError: src.e, Unsynchronized: !src.synced}
		replies := make([][]byte, len(batch))
		if len(sent) > 0 && sent[0].batch == b {
			replies, sent = sent[0].replies, sent[1:]
		}
		for i, in := range batch {
			if want := reference(ref, reading, in); !bytes.Equal(replies[i], want) {
				t.Fatalf("batch %d, slot %d: reply %x, want %x", b, i, replies[i], want)
			}
		}
	}
}

func runLoopback(t *testing.T, r servingRow) {
	src := &clockSource{clockSpec: synchronized}
	maxWall := 2 * served.UnixNano()
	if r.socks > 1 {
		maxWall = served.UnixNano()
	}
	corpus := servingCorpus(t, rand.New(rand.NewPCG(0x5eed, 0x1e4e)), 420, maxWall)
	ref := hlc.New(serverID)
	reading := wire.Response{ServerID: serverID, Clock: src.c, MaxError: src.e, Unsynchronized: !src.synced}
	want := make(map[uint64][]byte)
	var wantMalformed, wantHandled uint64
	for _, d := range corpus {
		owed := reference(ref, reading, d.raw)
		switch {
		case (d.reqID != 0) != (owed != nil):
			t.Fatalf("datagram %x: the corpus owes it a reply %v, the reference %v", d.raw, d.reqID != 0, owed != nil)
		case owed != nil:
			want[d.reqID] = owed
		case d.advertise && r.handler:
			wantHandled++
		case len(d.raw) > 0:
			wantMalformed++
		}
	}

	var handled atomic.Uint64
	var opts []ServerOption
	if r.handler {
		opts = append(opts, advertiseOption{handler: func(_ *net.UDPAddr, entries []wire.MemberEntry) {
			handled.Add(uint64(len(entries)))
		}})
	}
	srv, err := r.newServer("127.0.0.1:0", serverID, src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got := sendCorpus(t, srv.Addr().String(), corpus, r.socks, r.trains)
	waitCounter(t, "requests", srv.Requests, uint64(len(want)))
	waitCounter(t, "malformed", srv.MalformedDatagrams, wantMalformed)
	waitCounter(t, "advertisements handled", handled.Load, wantHandled)
	for id, w := range want {
		g := got[id]
		if r.socks > 1 && len(w) == wire.ResponseHLCSize && len(g) == len(w) {
			logical := wire.ResponseSize + 8 // hlc.Timestamp: wall, logical, node
			clear(w[logical : logical+4])
			clear(g[logical : logical+4])
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("reqID %d: reply %x, want %x", id, g, w)
		}
	}
}

// corpusDatagram is one corpus element: the raw bytes and what a server
// owes it.
type corpusDatagram struct {
	raw       []byte
	reqID     uint64 // nonzero only for datagrams that must be answered
	advertise bool   // a well-formed advertisement: the handler's, if one is installed
}

// servingCorpus builds a randomized datagram corpus cycling through
// fourteen kinds over all three wire versions: valid version-1 and
// version-3 requests, a valid version-2 advertisement, and eleven
// malformed or non-request shapes (truncations of each, bad
// magic/version/type, nonzero reserved byte, flagged requests, stray
// responses of both versions, and raw garbage). Only the valid requests
// may be answered. The version-3 requests carry hybrid-logical-clock
// walls drawn below maxWall.
func servingCorpus(t *testing.T, rng *rand.Rand, n int, maxWall int64) []corpusDatagram {
	t.Helper()
	corpus := make([]corpusDatagram, 0, n)
	for i := 0; i < n; i++ {
		// Request IDs stay clear of zero so reqID==0 can mean "no reply".
		id := rng.Uint64() | 1
		valid := wire.AppendRequest(nil, wire.Request{ReqID: id})
		validHLC := wire.AppendRequestHLC(nil, wire.RequestHLC{ReqID: id, TS: hlc.Timestamp{
			Wall: rng.Int64N(maxWall), Logical: rng.Uint32N(1 << 16), Node: 1 + rng.Uint32N(8),
		}})
		response := wire.Response{
			ReqID:    id,
			ServerID: rng.Uint64(),
			Clock:    time.Unix(0, int64(rng.Uint64N(1<<62))),
			MaxError: time.Duration(rng.Uint64N(1 << 30)),
		}
		var d corpusDatagram
		var err error
		switch i % 14 {
		case 0: // well-formed request
			d = corpusDatagram{raw: valid, reqID: id}
		case 1: // truncated request
			d.raw = valid[:rng.IntN(wire.RequestSize)]
		case 2: // bad magic
			d.raw = bytes.Clone(valid)
			d.raw[rng.IntN(4)] ^= 1 + byte(rng.IntN(255))
		case 3: // bad version
			d.raw = bytes.Clone(valid)
			for d.raw[4] == wire.Version {
				d.raw[4] = byte(rng.IntN(256))
			}
		case 4: // stray response sent as a query
			d.raw, err = wire.AppendResponse(nil, response)
		case 5: // nonzero reserved byte
			d.raw = bytes.Clone(valid)
			d.raw[7] = 1 + byte(rng.IntN(255))
		case 6: // request with flags set
			d.raw = bytes.Clone(valid)
			d.raw[6] = 1 + byte(rng.IntN(255))
		case 7: // valid version-2 advertise
			d.advertise = true
			d.raw, err = wire.AppendAdvertise(nil, id, []wire.MemberEntry{{
				Addr:   "10.0.0.1:3123",
				Gen:    1,
				Seq:    uint64(i),
				Status: 1 + uint8(rng.IntN(4)),
				C:      float64(rng.IntN(1 << 30)),
				E:      rng.Float64(),
				Delta:  rng.Float64() / 1e3,
			}})
		case 8: // truncated advertise
			var adv []byte
			adv, err = wire.AppendAdvertise(nil, id, []wire.MemberEntry{{
				Addr: "10.0.0.2:3123", Gen: 2, Seq: uint64(i), Status: 2,
				C: 1e9, E: 0.25, Delta: 1e-4,
			}})
			if err == nil {
				d.raw = adv[:wire.RequestSize+1+rng.IntN(len(adv)-wire.RequestSize-1)]
			}
		case 9: // raw garbage
			d.raw = make([]byte, 1+rng.IntN(64))
			for j := range d.raw {
				d.raw[j] = byte(rng.IntN(256))
			}
			if len(d.raw) >= 4 {
				d.raw[0] = 0 // never a plausible magic
			}
		case 10: // well-formed version-3 request
			d = corpusDatagram{raw: validHLC, reqID: id}
		case 11: // version-3 request cut inside its timestamp
			d.raw = validHLC[:wire.RequestSize+rng.IntN(hlc.TimestampSize)]
		case 12: // stray version-3 response sent as a query
			d.raw, err = wire.AppendResponseHLC(nil, wire.ResponseHLC{Response: response, TS: hlc.Timestamp{Wall: 1, Node: 2}})
		case 13: // version-3 type under the version-1 number
			d.raw = bytes.Clone(validHLC)
			d.raw[4] = wire.Version
		}
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, d)
	}
	return corpus
}

// trainLen is the longest train sendCorpus sends: the GSO segment limit
// of the Linux batch backend.
const trainLen = 64

// sendCorpus sends the corpus to addr from socks connected batch conns,
// dealt round-robin (one 4-tuple reaches one SO_REUSEPORT shard, so it
// takes several to reach them all), and collects the replies until
// every answerable datagram has its own, keyed by the ID each echoes.
// One at a time, the datagrams go in corpus order. As trains, they are
// grouped into runs of one length (in corpus order within a length, so
// the version-3 requests keep theirs), cut into trains of up to
// trainLen, and written back to back through put, as the server and the
// load generator write theirs: where the platform has GSO a train
// leaves as one super-datagram, which a GRO server takes as one message
// and cuts back into datagrams itself, malformed ones of a valid length
// included; the per-packet server's kernel splits it, in the same
// order. The sends are paced: the per-packet backend drains one datagram
// per loop, and a dropped version-3 request would shift every later
// logical counter.
func sendCorpus(t *testing.T, addr string, corpus []corpusDatagram, socks int, trains bool) map[uint64][]byte {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]batchIO, socks)
	want := make([]int, socks)
	for k := range conns {
		conn, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			t.Fatal(err)
		}
		if conns[k], err = newBatchConn(conn, trainLen, true); err != nil {
			t.Fatal(err)
		}
		defer conns[k].Close()
	}
	order := slices.DeleteFunc(slices.Clone(corpus), func(d corpusDatagram) bool { return len(d.raw) == 0 })
	limit := 1
	if trains {
		slices.SortStableFunc(order, func(a, b corpusDatagram) int { return len(a.raw) - len(b.raw) })
		limit = trainLen
	}
	for i, k, sent := 0, 0, 1; i < len(order); k, sent = (k+1)%socks, sent+1 {
		bt, n := conns[k].Batch(), 0
		bt.train = bt.train[:0]
		for ; i < len(order) && n < limit && (n == 0 || len(order[i].raw) == len(bt.send[0])); i, n = i+1, n+1 {
			bt.put(n, append(bt.train, order[i].raw...))
			if order[i].reqID != 0 {
				want[k]++
			}
		}
		if _, err := conns[k].Send(n); err != nil {
			t.Fatal(err)
		}
		if trains || sent%24 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	got := make(map[uint64][]byte)
	for k, bc := range conns {
		_ = bc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for want[k] > 0 {
			n, err := bc.Recv()
			if err != nil {
				t.Fatalf("socket %d, %d replies still owed: %v", k, want[k], err)
			}
			for _, raw := range bc.Batch().recv[:n] {
				if len(raw) < wire.RequestSize {
					t.Fatalf("short reply: %d bytes", len(raw))
				}
				id := binary.BigEndian.Uint64(raw[8:16])
				if prev, dup := got[id]; dup {
					t.Fatalf("duplicate reply for reqID %d (prev %x)", id, prev)
				}
				got[id] = bytes.Clone(raw)
				want[k]--
			}
		}
	}
	return got
}

// waitCounter polls get until it returns want or the deadline passes.
func waitCounter(t *testing.T, name string, get func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := get(); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: got %d, want %d", name, get(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
