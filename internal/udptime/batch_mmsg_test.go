//go:build linux && (amd64 || arm64)

package udptime

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"disttime/internal/hlc"
	"disttime/internal/wire"
)

// TestPackRunsByPeerAndLength pins how a send batch is cut into
// sendmmsg messages: consecutive slots to one peer with one length are
// one run, a run of several carries its own UDP_SEGMENT size, a run of
// one leaves plain — so a batch of version-1 replies followed by
// version-3 replies to one peer is two super-datagrams, and each
// arrives as individual datagrams of its own length.
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
	// bytes; slot 8 to b: 56 bytes.
	bt := bc.Batch()
	lens := []int{40, 40, 40, 40, 0, 56, 56, 56, 56}
	for i, l := range lens {
		bt.send[i] = bt.send[i][:l]
		for j := range bt.send[i] {
			bt.send[i][j] = byte(i)
		}
	}
	if cnt, _ := c.pack(0, 9); cnt != 3 {
		t.Fatalf("pack cut the batch into %d messages, want 3", cnt)
	}
	for m, want := range []struct {
		segs uint64
		seg  uint16
	}{{4, 40}, {3, 56}, {1, 0}} {
		h := c.shdrs[m].hdr
		if h.Iovlen != want.segs || (h.Control != nil) != (want.seg != 0) || (want.seg != 0 && c.sctls[m].seg != want.seg) {
			t.Fatalf("message %d: %d segments, control %v, segment size %d; want %d segments of %d",
				m, h.Iovlen, h.Control != nil, c.sctls[m].seg, want.segs, want.seg)
		}
	}

	if err := bc.Send(9); err != nil {
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
			t.Fatalf("reply %d: %v", i, err)
		}
		if got != l || buf[0] != byte(i) {
			t.Fatalf("reply %d: %d bytes tagged %d, want %d bytes tagged %d", i, got, buf[0], l, i)
		}
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

// TestRecvSplitsGROTrain pins the receive half of the GSO/GRO pair. A
// connected batch conn sends a 64-segment version-1 train, then a
// 64-segment version-3 train; the server's conn takes each as one
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
	if !sbc.(*mmsgConn).gro {
		t.Skip("kernel without UDP_GRO: every datagram is its own message")
	}
	cliConn, err := net.DialUDP("udp", nil, srvConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
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
		for i := range 2 * maxGSOSegs {
			id := uint64(i) + 1
			if i < maxGSOSegs {
				cbt.send[i] = wire.AppendRequest(cbt.send[i][:0], wire.Request{ReqID: id})
			} else {
				cbt.send[i] = wire.AppendRequestHLC(cbt.send[i][:0], wire.RequestHLC{ReqID: id, TS: hlc.Timestamp{Wall: int64(id), Node: 9}})
			}
		}
	}
	trains()
	if err := cbc.Send(2 * maxGSOSegs); err != nil {
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
	for i := range maxGSOSegs {
		b := wire.AppendRequest(cbt.send[i][:0], wire.Request{ReqID: 1000 + uint64(i)})
		cbt.send[i] = append(b, make([]byte, segLen-len(b))...)
	}
	if err := cbc.Send(maxGSOSegs); err != nil {
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
	src := fixedSource{c: time.Unix(1_700_000_000, 0), e: time.Millisecond, synced: true}
	s := &Server{id: 1, src: src, hlc: hlc.New(1)}
	if served := s.respond(sbt, n, src.c, src.e, true); served != whole || s.MalformedDatagrams() != 1 {
		t.Fatalf("cut train: %d answered, %d malformed; want %d and 1", served, s.MalformedDatagrams(), whole)
	}
	if err := sbc.Send(n); err != nil {
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
		if err := cbc.Send(2 * maxGSOSegs); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < 2*maxGSOSegs; {
			n, err := sbc.Recv()
			if err != nil {
				t.Fatal(err)
			}
			s.respond(sbt, n, src.c, src.e, true)
			if err := sbc.Send(n); err != nil {
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

// TestBatchConnFootprint holds what a batch conn keeps for its lifetime
// at Batch: 64 under 1 MiB: with GRO on that is 4,096 datagram slots,
// 64 train buffers and one vector of send headers.
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
	total := buffers(c.rbufs, true) + buffers(c.rnames, true) + buffers(c.bt.send, true) +
		buffers(c.bt.recv, false) + // slices of rbufs
		cap(c.rctls)*int(unsafe.Sizeof(groCmsg{})) + cap(c.sctls)*int(unsafe.Sizeof(gsoCmsg{})) +
		(cap(c.riovs)+cap(c.siovs))*int(unsafe.Sizeof(syscall.Iovec{})) +
		(cap(c.rhdrs)+cap(c.shdrs))*int(unsafe.Sizeof(mmsghdr{})) +
		cap(c.msgOf)*int(unsafe.Sizeof(c.msgOf[0]))
	t.Logf("GRO %v: %d slots, %d bytes retained", c.gro, len(c.bt.recv), total)
	if total >= 1<<20 {
		t.Fatalf("a batch conn at Batch 64 retains %d bytes, want under 1 MiB", total)
	}
}
