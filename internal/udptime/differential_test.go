package udptime

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/wire"
)

// fixedSource is a deterministic clock: every read returns the same
// <C, E, synced> triple, which is what makes byte-identity across two
// serving backends assertable at all.
type fixedSource struct {
	c      time.Time
	e      time.Duration
	synced bool
}

func (f fixedSource) Now() (time.Time, time.Duration, bool) { return f.c, f.e, f.synced }

// diffDatagram is one corpus element: the raw bytes and what a server
// owes it.
type diffDatagram struct {
	raw       []byte
	reqID     uint64 // nonzero only for datagrams that must be answered
	advertise bool   // a well-formed advertisement: the handler's, if one is installed
}

// diffCorpus builds a randomized datagram corpus cycling through
// fourteen kinds over all three wire versions: valid version-1 and
// version-3 requests, a valid version-2 advertisement, and eleven
// malformed or non-request shapes (truncations of each, bad
// magic/version/type, nonzero reserved byte, flagged requests, stray
// responses of both versions, and raw garbage). Only the valid requests
// may be answered. The version-3 requests carry hybrid-logical-clock
// walls drawn below maxWall.
func diffCorpus(t *testing.T, rng *rand.Rand, n int, maxWall int64) []diffDatagram {
	t.Helper()
	corpus := make([]diffDatagram, 0, n)
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
		var d diffDatagram
		var err error
		switch i % 14 {
		case 0: // well-formed request
			d = diffDatagram{raw: valid, reqID: id}
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
			d = diffDatagram{raw: validHLC, reqID: id}
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

// sendCorpusCollect fires every corpus datagram at addr, dealing them
// round-robin over socks connected sockets (one 4-tuple reaches one
// SO_REUSEPORT shard, so it takes several to reach them all), and
// collects the replies until every answerable datagram has its own,
// returning raw reply bytes keyed by echoed reqID.
func sendCorpusCollect(t *testing.T, addr string, corpus []diffDatagram, socks int) map[uint64][]byte {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*net.UDPConn, socks)
	want := make([]int, socks)
	for k := range conns {
		if conns[k], err = net.DialUDP("udp", nil, raddr); err != nil {
			t.Fatal(err)
		}
		defer conns[k].Close()
	}
	for i, d := range corpus {
		if len(d.raw) == 0 {
			continue // zero-length write is a no-op datagram; skip
		}
		if _, err := conns[i%socks].Write(d.raw); err != nil {
			t.Fatal(err)
		}
		if d.reqID != 0 {
			want[i%socks]++
		}
		// Pace the blast: the per-packet backend drains one datagram per
		// loop, and a dropped version-3 request would shift every later
		// logical counter.
		if i%24 == 23 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	got := make(map[uint64][]byte)
	buf := make([]byte, maxDatagram)
	for k, conn := range conns {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for ; want[k] > 0; want[k]-- {
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("socket %d, %d replies still owed: %v", k, want[k], err)
			}
			if n < wire.RequestSize {
				t.Fatalf("short reply: %d bytes", n)
			}
			id := binary.BigEndian.Uint64(buf[8:16])
			if prev, dup := got[id]; dup {
				t.Fatalf("duplicate reply for reqID %d (prev %x)", id, prev)
			}
			got[id] = bytes.Clone(buf[:n])
		}
	}
	return got
}

// trainLen is the longest train sendCorpusTrains sends: the GSO
// segment limit of the Linux batch backend.
const trainLen = 64

// sendCorpusTrains is sendCorpusCollect with the corpus sent as trains:
// grouped into runs of one length (in corpus order within a length),
// each run cut into trains of up to trainLen, each train written back
// to back through put, as the server and the load generator write
// theirs, and sent with one Send from a connected batch conn, dealt
// round-robin over socks of them. Where the platform has GSO a train
// leaves as one super-datagram from one iovec and a GRO server takes it
// as one message; the per-packet server's kernel splits it back into
// datagrams, in the same order.
func sendCorpusTrains(t *testing.T, addr string, corpus []diffDatagram, socks int) map[uint64][]byte {
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
	order := make([]diffDatagram, 0, len(corpus))
	for _, d := range corpus {
		if len(d.raw) > 0 {
			order = append(order, d)
		}
	}
	slices.SortStableFunc(order, func(a, b diffDatagram) int { return len(a.raw) - len(b.raw) })
	for i, k := 0, 0; i < len(order); k = (k + 1) % socks {
		bt, n := conns[k].Batch(), 0
		bt.train = bt.train[:0]
		for ; i < len(order) && n < trainLen && (n == 0 || len(order[i].raw) == len(bt.send[0])); i, n = i+1, n+1 {
			bt.put(n, append(bt.train, order[i].raw...))
			if order[i].reqID != 0 {
				want[k]++
			}
		}
		if _, err := conns[k].Send(n); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // pace the per-packet backend, as above
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

// TestDifferentialServing is the serving-backend equivalence proof: the
// per-packet reference and the batch backend (NewServer, or
// NewBatchServer on four shards), both at their default configuration
// over the same deterministic clock, must answer an adversarial corpus
// of all three wire versions with byte-identical responses, identical
// served/malformed accounting and the same advertisements handed to the
// membership handler. On one shard fed from one socket, arrival order
// fixes the hybrid logical clock's counter and the version-3 replies
// compare whole; across shards fed from several sockets the order is
// the kernel's, so the logical counter alone is masked and the request
// walls stay below the servers' own, which keeps the stamped wall
// independent of order. Each shape runs twice: datagram by datagram,
// and as same-length trains (sendCorpusTrains), where the batch server
// takes a train as one message, malformed datagrams of a valid length
// inside it, and cuts it back into datagrams itself. Each batch server
// is fresh, so on Linux its shards start idle, and a shard the corpus
// queues datagrams at loads mid-corpus: both layouts are held to the
// reference.
func TestDifferentialServing(t *testing.T) {
	src := fixedSource{
		c:      time.Unix(0, 1_700_000_000_123_456_789),
		e:      250 * time.Microsecond,
		synced: true,
	}
	const serverID = 42
	for _, tc := range []struct {
		name          string
		shards, socks int
		handler       bool
		maxWall       int64
		trains        bool
	}{
		{name: "one shard", shards: 1, socks: 1, handler: true, maxWall: 2 * src.c.UnixNano()},
		{name: "four shards", shards: 4, socks: 8, handler: false, maxWall: src.c.UnixNano()},
		{name: "one shard, trains", shards: 1, socks: 1, handler: true, maxWall: 2 * src.c.UnixNano(), trains: true},
		{name: "four shards, trains", shards: 4, socks: 8, handler: false, maxWall: src.c.UnixNano(), trains: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corpus := diffCorpus(t, rand.New(rand.NewPCG(0xd1ff, 0x5e4e)), 420, tc.maxWall)
			var wantReplies, wantMalformed, wantHandled uint64
			for _, d := range corpus {
				switch {
				case d.reqID != 0:
					wantReplies++
				case d.advertise && tc.handler:
					wantHandled++
				case len(d.raw) > 0:
					wantMalformed++
				}
			}

			batch := NewServer
			if tc.shards > 1 {
				batch = batchBackend(BatchConfig{Shards: tc.shards})
			}
			replies := make(map[string]map[uint64][]byte)
			for _, b := range []backend{{"per-packet", perPacket}, {"batch", batch}} {
				var handled atomic.Uint64
				var opts []ServerOption
				if tc.handler {
					opts = append(opts, advertiseOption{handler: func(_ *net.UDPAddr, entries []wire.MemberEntry) {
						handled.Add(uint64(len(entries)))
					}})
				}
				srv, err := b.new("127.0.0.1:0", serverID, src, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				send := sendCorpusCollect
				if tc.trains {
					send = sendCorpusTrains
				}
				replies[b.name] = send(t, srv.Addr().String(), corpus, tc.socks)
				waitCounter(t, b.name+" requests", srv.Requests, wantReplies)
				waitCounter(t, b.name+" malformed", srv.MalformedDatagrams, wantMalformed)
				waitCounter(t, b.name+" advertisements handled", handled.Load, wantHandled)
			}

			for _, d := range corpus {
				if d.reqID == 0 {
					continue
				}
				ref, got := replies["per-packet"][d.reqID], replies["batch"][d.reqID]
				if tc.shards > 1 && len(ref) == wire.ResponseHLCSize && len(got) == wire.ResponseHLCSize {
					logical := wire.ResponseSize + 8 // hlc.Timestamp: wall, logical, node
					clear(ref[logical : logical+4])
					clear(got[logical : logical+4])
				}
				if len(ref) == 0 || !bytes.Equal(ref, got) {
					t.Fatalf("reqID %d: responses differ\nper-packet: %x\nbatch:      %x", d.reqID, ref, got)
				}
			}
		})
	}
}

// TestServingMatchesWireReference holds every reply to a reference that
// does not run the responder: the wire encoding of the fixed source's
// reading with the request's ID, and for a version-3 reply the stamp a
// fresh hybrid logical clock of the server's ID issues when it takes
// the version-3 requests in the order they were sent. One shard fed
// from one socket keeps that order, sent datagram by datagram or as
// same-length trains; each backend serves the corpus both ways.
func TestServingMatchesWireReference(t *testing.T) {
	src := fixedSource{
		c:      time.Unix(0, 1_700_000_000_123_456_789),
		e:      250 * time.Microsecond,
		synced: true,
	}
	const serverID = 42
	corpus := diffCorpus(t, rand.New(rand.NewPCG(0x5eed, 0x1e4e)), 420, 2*src.c.UnixNano())
	want := make(map[uint64][]byte)
	ref := hlc.New(serverID)
	for _, d := range corpus {
		if d.reqID == 0 {
			continue
		}
		reading := wire.Response{ReqID: d.reqID, ServerID: serverID, Clock: src.c, MaxError: src.e, Unsynchronized: !src.synced}
		var out []byte
		var err error
		if typ, _ := wire.PeekType(d.raw); typ == wire.TypeRequestHLC {
			req, perr := wire.ParseRequestHLC(d.raw)
			if perr != nil {
				t.Fatal(perr)
			}
			ts := ref.Update(src.c.Add(src.e).UnixNano(), req.TS)
			out, err = wire.AppendResponseHLC(nil, wire.ResponseHLC{Response: reading, TS: ts})
		} else {
			out, err = wire.AppendResponse(nil, reading)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[d.reqID] = out
	}
	for _, b := range []backend{{"per-packet", perPacket}, {"batch", NewServer}} {
		for _, trains := range []bool{false, true} {
			srv, err := b.new("127.0.0.1:0", serverID, src)
			if err != nil {
				t.Fatal(err)
			}
			send := sendCorpusCollect
			if trains {
				send = sendCorpusTrains
			}
			defer srv.Close()
			got := send(t, srv.Addr().String(), corpus, 1)
			for id, w := range want {
				if !bytes.Equal(got[id], w) {
					t.Fatalf("%s, trains %v: reqID %d: reply %x, want %x", b.name, trains, id, got[id], w)
				}
			}
		}
	}
}
