//go:build linux && (amd64 || arm64)

package udptime

import (
	"net"
	"testing"
	"time"
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
	if cnt := c.pack(9); cnt != 3 {
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
