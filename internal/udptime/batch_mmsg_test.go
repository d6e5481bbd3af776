//go:build linux && (amd64 || arm64)

package udptime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"disttime/internal/hlc"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// msgShape returns how many iovecs sendmmsg message m of c carries, how
// many bytes they hold, and its UDP_SEGMENT size (0 for a plain
// message).
func msgShape(c *mmsgConn, m int) (iovs, size, seg int) {
	h := c.shdrs[m].hdr
	for _, v := range unsafe.Slice(h.Iov, h.Iovlen) {
		size += int(v.Len)
	}
	if h.Control != nil {
		seg = int(c.sctls[m].seg)
	}
	return int(h.Iovlen), size, seg
}

// TestPackRunsByPeerAndLength pins how a send batch is cut into
// sendmmsg messages: consecutive slots to one peer with one length are
// one run, a run of several carries its own UDP_SEGMENT size, a run of
// one leaves plain — so a batch of version-1 replies followed by
// version-3 replies to one peer is two super-datagrams, and each
// arrives as individual datagrams of its own length. Written back to
// back through put, as respond and RunLoad write, a run is one iovec
// and every slot a view capped at its own end; filled slot by slot
// outside the train, the same batch is one iovec per datagram, and
// both arrive as the same datagrams, byte for byte. A run of 65
// datagrams to one peer leaves as 64 and 1. The server conn is loaded
// first (loadConn), as a server receiving such a batch would be.
func TestPackRunsByPeerAndLength(t *testing.T) {
	srvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := newBatchConn(srvConn, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	c := bc.(*mmsgConn)
	if c.maxSegs == 1 {
		t.Skip("kernel without UDP_SEGMENT: every datagram is its own message")
	}

	dial := func() *net.UDPConn {
		conn, err := net.DialUDP("udp", nil, srvConn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	a, b := dial(), dial()
	loadConn(t, bc, a)
	// Nine requests: eight from a, then one from b.
	for i := 0; i < 9; i++ {
		from := a
		if i == 8 {
			from = b
		}
		if _, err := from.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_ = bc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := bc.Recv(); err != nil {
		t.Fatal(err)
	} else if n != 9 {
		t.Skipf("recvmmsg returned %d of 9 datagrams: loopback delivery was deferred", n)
	}
	if got := bc.Peer(8); got.Port() != uint16(b.LocalAddr().(*net.UDPAddr).Port) || !got.Addr().IsLoopback() {
		t.Fatalf("Peer(8) = %v, want %v", got, b.LocalAddr())
	}

	// Slots 0-3 to a: 40 bytes; slot 4 left empty; slots 5-7 to a: 56
	// bytes; slot 8 to b: 56 bytes. Every byte of slot i is i.
	bt := bc.Batch()
	lens := []int{40, 40, 40, 40, 0, 56, 56, 56, 56}
	type shape struct{ iovs, size, seg int }
	var arrived [2][][]byte
	for k, layout := range []struct {
		name string
		fill func()
		want []shape
	}{
		{"back to back", func() {
			bt.train = bt.train[:0]
			for i, l := range lens {
				bt.send[i] = nil
				if l > 0 {
					bt.put(i, append(bt.train, bytes.Repeat([]byte{byte(i)}, l)...))
				}
			}
			for i, s := range bt.send[:len(lens)] {
				if cap(s) != len(s) {
					t.Fatalf("slot %d: a view of %d bytes with capacity %d, want capacity = length", i, len(s), cap(s))
				}
			}
		}, []shape{{1, 160, 40}, {1, 168, 56}, {1, 56, 0}}},
		{"slot by slot", func() {
			const stride = 64 // no slot adjoins the next
			arena := make([]byte, len(lens)*stride)
			for i, l := range lens {
				bt.send[i] = arena[i*stride : i*stride+l]
				for j := range bt.send[i] {
					bt.send[i][j] = byte(i)
				}
			}
		}, []shape{{4, 160, 40}, {3, 168, 56}, {1, 56, 0}}},
	} {
		layout.fill()
		if cnt, _ := c.pack(0, len(lens)); cnt != len(layout.want) {
			t.Fatalf("%s: pack cut the batch into %d messages, want %d", layout.name, cnt, len(layout.want))
		}
		for m, want := range layout.want {
			if iovs, size, seg := msgShape(c, m); (shape{iovs, size, seg}) != want {
				t.Fatalf("%s, message %d: %d iovecs of %d bytes, segment size %d; want %d of %d, segment size %d",
					layout.name, m, iovs, size, seg, want.iovs, want.size, want.seg)
			}
		}
		if _, err := bc.Send(len(lens)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, maxDatagram)
		for i, l := range lens {
			to := a
			if i == 8 {
				to = b
			}
			if l == 0 {
				continue
			}
			_ = to.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := to.Read(buf)
			if err != nil {
				t.Fatalf("%s, reply %d: %v", layout.name, i, err)
			}
			if got != l || buf[0] != byte(i) {
				t.Fatalf("%s, reply %d: %d bytes tagged %d, want %d bytes tagged %d", layout.name, i, got, buf[0], l, i)
			}
			arrived[k] = append(arrived[k], bytes.Clone(buf[:got]))
		}
	}
	for i := range arrived[0] {
		if !bytes.Equal(arrived[0][i], arrived[1][i]) {
			t.Fatalf("datagram %d: %x back to back, %x slot by slot", i, arrived[0][i], arrived[1][i])
		}
	}

	// 65 requests to one peer: 64 under one UDP_SEGMENT from one iovec,
	// then one plain, arriving as 65 datagrams in order.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	cli, err := net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	cbc, err := newBatchConn(cli, maxGSOSegs+1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cbc.Close()
	cc, cbt := cbc.(*mmsgConn), cbc.Batch()
	cbt.train = cbt.train[:0]
	for i := range maxGSOSegs + 1 {
		cbt.put(i, wire.AppendRequest(cbt.train, wire.Request{ReqID: uint64(i) + 1}))
	}
	if cnt, _ := cc.pack(0, maxGSOSegs+1); cnt != 2 {
		t.Fatalf("a run of %d cut into %d messages, want 2", maxGSOSegs+1, cnt)
	}
	for m, want := range []shape{{1, maxGSOSegs * wire.RequestSize, wire.RequestSize}, {1, wire.RequestSize, 0}} {
		if iovs, size, seg := msgShape(cc, m); (shape{iovs, size, seg}) != want {
			t.Fatalf("run of %d, message %d: %d iovecs of %d bytes, segment size %d; want %d of %d, segment size %d",
				maxGSOSegs+1, m, iovs, size, seg, want.iovs, want.size, want.seg)
		}
	}
	if _, err := cbc.Send(maxGSOSegs + 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, maxDatagram)
	_ = sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := range maxGSOSegs + 1 {
		n, err := sink.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d of %d: %v", i, maxGSOSegs+1, err)
		}
		if req, err := wire.ParseRequest(buf[:n]); n != wire.RequestSize || err != nil || req.ReqID != uint64(i)+1 {
			t.Fatalf("datagram %d: %d bytes, %+v, %v; want request %d", i, n, req, err, i+1)
		}
	}
}

// TestSendSkipsRefusedDatagram holds both backends to dropping only the
// datagram the kernel refuses. Three clients send a request each; once
// the server has received them, slot 1's source port is rewritten to 0,
// to which Linux refuses to send (EINVAL). Served in one batch, the
// other two clients still get their replies, and
// udptime_server_send_errors_total counts the one refused. serve takes
// the batch from a scriptIO replaying it over the backend.
func TestSendSkipsRefusedDatagram(t *testing.T) {
	for _, b := range []struct {
		name    string
		newConn func(conn *net.UDPConn, size int, connected bool) (batchIO, error)
		// refuse receives the three requests, points slot 1's reply at
		// port 0, and returns the requests and the port slot 1 had.
		refuse func(t *testing.T, bc batchIO) ([][]byte, uint16)
	}{
		{"per-packet", newPacketConn, func(t *testing.T, bc batchIO) ([][]byte, uint16) {
			c := bc.(*packetBatchConn)
			var recv [3][]byte
			var peers [3]netip.AddrPort
			for k := range recv {
				if _, err := bc.Recv(); err != nil {
					t.Fatal(err)
				}
				recv[k], peers[k] = bytes.Clone(c.bt.recv[0]), c.peers[0]
			}
			copy(c.peers, peers[:])
			c.peers[1] = netip.AddrPortFrom(peers[1].Addr(), 0)
			return recv[:], peers[1].Port()
		}},
		{"batch", newBatchConn, func(t *testing.T, bc batchIO) ([][]byte, uint16) {
			c := bc.(*mmsgConn)
			if n, err := bc.Recv(); err != nil {
				t.Fatal(err)
			} else if n != 3 {
				t.Skipf("recvmmsg returned %d of 3 datagrams: loopback delivery was deferred", n)
			}
			name := c.rnames[c.msgOf[1]]
			port := binary.BigEndian.Uint16(name[2:4])
			name[2], name[3] = 0, 0
			return c.bt.recv[:3], port
		}},
	} {
		t.Run(b.name, func(t *testing.T) {
			srvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			bc, err := b.newConn(srvConn, 3, false)
			if err != nil {
				t.Fatal(err)
			}
			defer bc.Close()
			clients := make([]*net.UDPConn, 3)
			for k := range clients {
				if clients[k], err = net.DialUDP("udp", nil, srvConn.LocalAddr().(*net.UDPAddr)); err != nil {
					t.Fatal(err)
				}
				defer clients[k].Close()
			}
			if _, idle := bc.(*mmsgConn); idle {
				loadConn(t, bc, clients[0])
			}
			for k, cl := range clients {
				if _, err := cl.Write(wire.AppendRequest(nil, wire.Request{ReqID: uint64(k) + 1})); err != nil {
					t.Fatal(err)
				}
			}
			_ = bc.SetReadDeadline(time.Now().Add(5 * time.Second))
			recv, refused := b.refuse(t, bc)

			reg := obs.NewRegistry()
			s := &Server{id: 1, src: &clockSource{clockSpec: synchronized}, hlc: hlc.New(1)}
			WithServerObservability(reg).applyServer(s)
			s.loops.Add(1)
			io := &scriptIO{conn: bc, bt: bc.Batch(), script: [][][]byte{recv}}
			s.serve(io)
			if got := reg.Counter("udptime_server_send_errors_total").Value(); got != 1 || io.sends != 1 {
				t.Fatalf("%d Send calls, %d send errors counted; want the 1 refused reply of 1 Send", io.sends, got)
			}
			buf := make([]byte, maxDatagram)
			for k, cl := range clients {
				if uint16(cl.LocalAddr().(*net.UDPAddr).Port) == refused {
					continue
				}
				_ = cl.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := cl.Read(buf)
				if err != nil {
					t.Fatalf("client %d got no reply: %v", k, err)
				}
				if resp, err := wire.ParseResponse(buf[:n]); err != nil || resp.ReqID != uint64(k)+1 {
					t.Fatalf("client %d: %+v, %v; want the reply to request %d", k, resp, err, k+1)
				}
			}
		})
	}
}

// recvSlots reads from bc until want datagram slots have arrived and
// returns copies of them, the source each slot names, and how many
// messages carried them.
func recvSlots(t *testing.T, bc batchIO, want int) (slots [][]byte, peers []netip.AddrPort, msgs int) {
	t.Helper()
	_ = bc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(slots) < want {
		n, err := bc.Recv()
		if err != nil {
			t.Fatalf("after %d of %d slots: %v", len(slots), want, err)
		}
		for i := 0; i < n; i++ {
			slots = append(slots, bytes.Clone(bc.Batch().recv[i]))
			peers = append(peers, bc.Peer(i))
		}
		msgs += bc.(*mmsgConn).recvN
	}
	return slots, peers, msgs
}

// loadConn drives the idle server conn bc through its switch: from
// sends it an idle vector of one-byte datagrams at a time until a Recv
// drains a full one and the next Recv loads it, and then whatever is
// left in the socket is drained.
func loadConn(t *testing.T, bc batchIO, from *net.UDPConn) {
	t.Helper()
	c := bc.(*mmsgConn)
	_ = bc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for try := 0; !c.loaded; try++ {
		if try == 100 {
			t.Fatalf("still idle after %d rounds of %d datagrams", try, idleBatch)
		}
		for range idleBatch {
			if _, err := from.Write([]byte{0}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := bc.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for {
		_ = bc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		_, err := bc.Recv()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = bc.SetReadDeadline(time.Time{})
}

// TestRecvSplitsGROTrain pins the receive half of the GSO/GRO pair. A
// server conn is first driven out of its idle layout (loadConn), which
// turns UDP_GRO on. A connected batch conn sends a 64-segment version-1
// train, then a 64-segment version-3 train; the server's conn takes each as one
// message, and Recv cuts them back into 128 slots, byte for byte and in
// order, every one naming the sender. A train longer than a receive
// buffer keeps its whole segments, which are answered, and ends in an
// empty slot, which is counted as malformed. And the real-socket loop —
// trains out, Recv, respond, Send, replies in — allocates nothing.
func TestRecvSplitsGROTrain(t *testing.T) {
	srvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sbc, err := newBatchConn(srvConn, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sbc.Close()
	cliConn, err := net.DialUDP("udp", nil, srvConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	loadConn(t, sbc, cliConn)
	if !sbc.(*mmsgConn).gro {
		t.Skip("kernel without UDP_GRO: every datagram is its own message")
	}
	cbc, err := newBatchConn(cliConn, maxGSOSegs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cbc.Close()
	if cbc.(*mmsgConn).maxSegs == 1 {
		t.Skip("kernel without UDP_SEGMENT: nothing sends a train")
	}
	sender := cliConn.LocalAddr().(*net.UDPAddr).AddrPort()
	cbt, sbt := cbc.Batch(), sbc.Batch()

	// Two trains: requests 1..64 in version 1, then 65..128 in version 3.
	trains := func() {
		cbt.train = cbt.train[:0]
		for i := range 2 * maxGSOSegs {
			id := uint64(i) + 1
			if i < maxGSOSegs {
				cbt.put(i, wire.AppendRequest(cbt.train, wire.Request{ReqID: id}))
			} else {
				cbt.put(i, wire.AppendRequestHLC(cbt.train, wire.RequestHLC{ReqID: id, TS: hlc.Timestamp{Wall: int64(id), Node: 9}}))
			}
		}
	}
	trains()
	if _, err := cbc.Send(2 * maxGSOSegs); err != nil {
		t.Fatal(err)
	}
	slots, peers, msgs := recvSlots(t, sbc, 2*maxGSOSegs)
	if len(slots) != 2*maxGSOSegs || msgs != 2 {
		t.Fatalf("Recv cut %d slots from %d messages, want %d from 2", len(slots), msgs, 2*maxGSOSegs)
	}
	for i, got := range slots {
		if !bytes.Equal(got, cbt.send[i]) || peers[i] != sender {
			t.Fatalf("slot %d: %x from %v, want %x from %v", i, got, peers[i], cbt.send[i], sender)
		}
	}

	// One train of 100-byte segments, each a version-1 request with a
	// padded tail: 6,400 bytes, of which a receive buffer holds 40 whole
	// segments and 96 bytes of the 41st.
	const segLen, whole = 100, trainBuf / 100
	cbt.train = cbt.train[:0]
	for i := range maxGSOSegs {
		b := wire.AppendRequest(cbt.train, wire.Request{ReqID: 1000 + uint64(i)})
		cbt.put(i, append(b, make([]byte, segLen-wire.RequestSize)...))
	}
	if _, err := cbc.Send(maxGSOSegs); err != nil {
		t.Fatal(err)
	}
	_ = sbc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := sbc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if n != whole+1 || len(sbt.recv[whole]) != 0 {
		t.Fatalf("a cut train gave %d slots, the last %d bytes; want %d whole segments and one empty slot", n, len(sbt.recv[n-1]), whole)
	}
	for i := range whole {
		if !bytes.Equal(sbt.recv[i], cbt.send[i]) {
			t.Fatalf("cut train, slot %d: %x, want %x", i, sbt.recv[i], cbt.send[i])
		}
	}
	src := &clockSource{clockSpec: synchronized}
	s := &Server{id: 1, src: src, hlc: hlc.New(1)}
	if served := s.respond(sbt, n, src.c, src.e, true); served != whole || s.MalformedDatagrams() != 1 {
		t.Fatalf("cut train: %d answered, %d malformed; want %d and 1", served, s.MalformedDatagrams(), whole)
	}
	if _, err := sbc.Send(n); err != nil {
		t.Fatal(err)
	}
	replies, _, _ := recvSlots(t, cbc, whole)
	for i, raw := range replies {
		if resp, err := wire.ParseResponse(raw); err != nil || resp.ReqID != 1000+uint64(i) {
			t.Fatalf("reply %d to the cut train: %+v, %v", i, resp, err)
		}
	}

	trains()
	_ = sbc.SetReadDeadline(time.Now().Add(time.Minute))
	_ = cbc.SetReadDeadline(time.Now().Add(time.Minute))
	roundTrip := func() {
		if _, err := cbc.Send(2 * maxGSOSegs); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < 2*maxGSOSegs; {
			n, err := sbc.Recv()
			if err != nil {
				t.Fatal(err)
			}
			s.respond(sbt, n, src.c, src.e, true)
			if _, err := sbc.Send(n); err != nil {
				t.Fatal(err)
			}
			got += n
		}
		for got := 0; got < 2*maxGSOSegs; {
			n, err := cbc.Recv()
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Fatalf("a round trip of two trains allocates %v times, want 0", allocs)
	}
}

// TestBatchConnFootprint holds what a server batch conn at Batch: 64
// keeps for its lifetime. Idle, it holds two messages of one datagram,
// at most 8 KiB, near a per-packet conn. Loaded by a full Recv, and
// with GRO on, that is 4,096 datagram slots, 64 receive train buffers,
// one send train of 4,096 × 56 bytes and one vector of send headers,
// 785,920 bytes in all, held under 800 KiB. And once loaded, a
// Recv/Send round trip allocates nothing.
func TestBatchConnFootprint(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := newBatchConn(conn, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	c := bc.(*mmsgConn)
	buffers := func(bufs [][]byte, own bool) int {
		n := cap(bufs) * int(unsafe.Sizeof(bufs[0]))
		for _, b := range bufs {
			if own {
				n += cap(b)
			}
		}
		return n
	}
	retained := func() int {
		return buffers(c.rbufs, true) + buffers(c.rnames, true) +
			buffers(c.bt.recv, false) + // slices of rbufs
			buffers(c.bt.send, false) + cap(c.bt.train) + // views of train
			cap(c.rctls)*int(unsafe.Sizeof(groCmsg{})) + cap(c.sctls)*int(unsafe.Sizeof(gsoCmsg{})) +
			(cap(c.riovs)+cap(c.siovs))*int(unsafe.Sizeof(syscall.Iovec{})) +
			(cap(c.rhdrs)+cap(c.shdrs))*int(unsafe.Sizeof(mmsghdr{})) +
			cap(c.ssegs)*int(unsafe.Sizeof(c.ssegs[0])) +
			cap(c.msgOf)*int(unsafe.Sizeof(c.msgOf[0]))
	}
	idle := retained()
	t.Logf("idle: %d slots, %d bytes retained", len(c.bt.recv), idle)
	if idle > 8<<10 {
		t.Fatalf("an idle batch conn retains %d bytes, want at most 8 KiB", idle)
	}

	cli, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	loadConn(t, bc, cli)
	total := retained()
	t.Logf("loaded, GRO %v: %d slots, %d bytes retained", c.gro, len(c.bt.recv), total)
	if total >= 800<<10 {
		t.Fatalf("a batch conn at Batch 64 retains %d bytes, want under 800 KiB", total)
	}

	cbc, err := newBatchConn(cli, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cbc.Close()
	cbt, sbt := cbc.Batch(), bc.Batch()
	cbt.train = cbt.train[:0]
	cbt.put(0, wire.AppendRequest(cbt.train, wire.Request{ReqID: 1}))
	_ = bc.SetReadDeadline(time.Now().Add(time.Minute))
	_ = cbc.SetReadDeadline(time.Now().Add(time.Minute))
	echo := func() {
		if _, err := cbc.Send(1); err != nil {
			t.Fatal(err)
		}
		n, err := bc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		sbt.train = sbt.train[:0]
		for i := range n {
			sbt.put(i, append(sbt.train, sbt.recv[i]...))
		}
		if _, err := bc.Send(n); err != nil {
			t.Fatal(err)
		}
		if _, err := cbc.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, echo); allocs != 0 {
		t.Fatalf("a loaded conn's Recv/Send round trip allocates %v times, want 0", allocs)
	}
}

// TestIdleServerKeepsGROOff holds NewServer to the per-packet footprint
// under sync traffic: after answering 1,000 lone queries, one at a
// time, its shard is still idle, with the idle vector laid out and
// UDP_GRO off on the socket itself.
func TestIdleServerKeepsGROOff(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1, shiftedClock{synced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(time.Second, nil)
	defer cl.Close()
	const queries = 1000
	for i := range queries {
		if _, err := cl.Query(srv.Addr().String()); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	rc, err := srv.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var gro int
	if err := rc.Control(func(fd uintptr) {
		// A kernel without UDP_GRO refuses the read and leaves 0: off.
		gro, _ = syscall.GetsockoptInt(int(fd), solUDP, udpGRO)
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // the serving loop is done with c
		t.Fatal(err)
	}
	c := srv.shards[0].(*mmsgConn)
	if srv.Requests() != queries || gro != 0 || c.loaded || c.gro || len(c.rhdrs) != idleBatch {
		t.Fatalf("after %d of %d lone queries answered: UDP_GRO %d, loaded %v, a vector of %d messages; want GRO off, idle, %d",
			srv.Requests(), queries, gro, c.loaded, len(c.rhdrs), idleBatch)
	}
}
