package udptime

import (
	"net"
	"net/netip"
	"time"
)

// The per-packet backend: plain reads and writes behind the same slot
// discipline as the Linux fast path, so the serving and load-generation
// code is identical on every backend. It is what NewServer,
// NewBatchServer and RunLoad fall back to off linux/amd64 and
// linux/arm64; on those two it is only the reference the differential
// tests hold the batch backend to. Recv returns one datagram per call
// (the stdlib offers no way to drain a socket without extra syscalls),
// so one receive buffer serves every call; Send walks the prepared
// slots one write at a time, of which it keeps size for the load
// generator's windows. netip.AddrPort keeps the path
// allocation-free — the value type carries the peer address without
// the *net.UDPAddr heap churn of ReadFromUDP.

type packetBatchConn struct {
	conn      *net.UDPConn
	bt        ioBatch
	rbuf      []byte
	peers     []netip.AddrPort
	connected bool
}

// newPacketConn wraps conn for slot-based per-packet I/O.
func newPacketConn(conn *net.UDPConn, size int, connected bool) (batchIO, error) {
	c := &packetBatchConn{conn: conn, bt: newIOBatch(size), rbuf: make([]byte, maxDatagram), connected: connected}
	c.peers = make([]netip.AddrPort, size)
	return c, nil
}

func (c *packetBatchConn) Batch() *ioBatch { return &c.bt }

func (c *packetBatchConn) Peer(i int) netip.AddrPort { return c.peers[i] }

func (c *packetBatchConn) Close() error { return c.conn.Close() }

func (c *packetBatchConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

func (c *packetBatchConn) Recv() (int, error) {
	if c.connected {
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			return 0, err
		}
		c.bt.recv[0] = c.rbuf[:n]
		return 1, nil
	}
	n, peer, err := c.conn.ReadFromUDPAddrPort(c.rbuf)
	if err != nil {
		return 0, err
	}
	c.peers[0] = peer
	c.bt.recv[0] = c.rbuf[:n]
	return 1, nil
}

func (c *packetBatchConn) Send(n int) (refused int, err error) {
	for i := 0; i < n; i++ {
		b := c.bt.send[i]
		if len(b) == 0 {
			continue
		}
		var werr error
		if c.connected {
			_, werr = c.conn.Write(b)
		} else {
			_, werr = c.conn.WriteToUDPAddrPort(b, c.peers[i])
		}
		if werr != nil {
			refused++
			if err == nil {
				err = werr
			}
		}
	}
	return refused, err
}
