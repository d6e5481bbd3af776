//go:build linux && (amd64 || arm64)

package udptime

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"syscall"
	"time"
	"unsafe"

	"disttime/internal/wire"
)

// The Linux batch fast path: one recvmmsg system call drains up to a
// full vector of messages, one sendmmsg call answers them. The syscall
// entry is the smaller part of what that saves. On the loopback, and on
// most NICs, each datagram also walks the IP stack once on the way out
// and once on the way in; UDP_SEGMENT (below) lets a run of replies
// walk it once on the way out, and UDP_GRO lets a run of requests from
// one socket arrive as one message. The raw syscalls integrate with
// the runtime poller through syscall.RawConn: the callbacks return
// false on EAGAIN so the goroutine parks in the netpoller instead of
// spinning, and deadlines and Close behave exactly as they do for the
// stdlib read path.
//
// Restricted to amd64/arm64, where syscall.Msghdr's layout (64-bit
// Iovlen, 4-byte Namelen padding) matches the struct literals below;
// every other platform takes the per-packet fallback in
// batch_portable.go.

// msgDontwait is MSG_DONTWAIT: the callbacks must never block inside
// the raw-access critical section.
const msgDontwait = 0x40

// sockaddrStorage is the size of struct sockaddr_storage: enough for
// any address family the socket can hand back.
const sockaddrStorage = 128

// UDP generalized segmentation offload, both ways. Batching system
// calls with sendmmsg amortizes only the syscall entry: each datagram
// still traverses the full IP send path inline. Because every message
// of this protocol has one of a few fixed sizes (requests 16 or 32
// bytes, responses 40 or 56), a run of equal-length datagrams to one
// peer can instead be handed to the kernel as a single super-datagram,
// one stack traversal. The segment size rides on each multi-segment
// message as a UDP_SEGMENT control message, not on the socket, so runs
// of different lengths share a sendmmsg vector and a lone datagram of
// any length goes out plain. With UDP_GRO on, the receiving socket
// takes such a train (or one the NIC coalesced) unsplit, as one message
// whose UDP_GRO control message names the segment size; Recv cuts it
// back into datagrams.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT (Linux 4.18+)
	udpGRO     = 104 // UDP_GRO (Linux 5.0+)
	maxGSOSegs = 64  // UDP_MAX_SEGMENTS floor across supported kernels
)

// trainBuf is a receive buffer with UDP_GRO on: a whole train of this
// protocol's largest message, maxGSOSegs × wire.ResponseHLCSize = 3,584
// bytes, rounded up to a page. A longer train is cut (see split).
const trainBuf = 4 << 10

// gsoCmsg is one UDP_SEGMENT control message: a cmsghdr, the 16-bit
// segment size, and padding up to CMSG_SPACE(2).
type gsoCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
	_   [6]byte
}

// groCmsg is the UDP_GRO control message a coalesced message arrives
// with: a cmsghdr and the int segment size, CMSG_SPACE(4) bytes.
type groCmsg struct {
	hdr syscall.Cmsghdr
	seg int32
	_   [4]byte
}

// udpOption sets a SOL_UDP socket option and reports whether the kernel
// took it: UDP_SEGMENT's probe at construction, UDP_GRO's at load.
func udpOption(rc syscall.RawConn, opt, val int) bool {
	var serr error
	cerr := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, opt, val)
	})
	return cerr == nil && serr == nil
}

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message byte count recvmmsg/sendmmsg fill in.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// idleBatch is the receive vector of an idle server socket: two
// messages, so the first Recv that drains more than one datagram (a
// queue building behind the loop) is the one that loads it. A socket
// answering lone queries never fills it and keeps the per-packet
// footprint; a vector of one would be full at every Recv.
const idleBatch = 2

// mmsgConn is a batchIO over recvmmsg/sendmmsg. All vectors — buffers,
// iovecs, message headers, sockaddr storage, control messages — are laid
// out by layout; Recv and Send only rewrite lengths and pointers.
// Receive state is per message (a datagram, or with UDP_GRO a train of
// them from one source); the ioBatch is per datagram, and msgOf maps a
// slot back to its message.
//
// A server socket starts idle: a vector of idleBatch messages, one
// datagram each, and UDP_GRO off. The first Recv to fill that vector
// loads it at the top of the next Recv, when no slot view is live: the
// configured vector, UDP_GRO on where the kernel takes it, and the slot
// layout a train needs. Loading is for good. A connected (load
// generator) socket sends a whole window before it receives anything,
// so it starts loaded.
type mmsgConn struct {
	conn      *net.UDPConn
	rc        syscall.RawConn
	bt        ioBatch
	connected bool
	size      int  // messages per vector once loaded
	loaded    bool // the configured vector is laid out
	maxSegs   int  // datagrams per sent message: maxGSOSegs with GSO, else 1
	gro       bool // UDP_GRO on: a received message may be a train

	rbufs  [][]byte // per-message receive buffers
	rnames [][]byte // per-message sockaddr storage
	rctls  []groCmsg
	riovs  []syscall.Iovec
	rhdrs  []mmsghdr
	msgOf  []uint16        // receive slot → message index (< maxBatch)
	siovs  []syscall.Iovec // at most one per slot
	shdrs  []mmsghdr       // one sendmmsg vector
	ssegs  []int           // datagrams in each message of shdrs
	sctls  []gsoCmsg       // per-message control buffers, headers prefilled

	// Results ferried out of the raw-access callbacks, which are built
	// once here so the hot path never allocates a closure.
	recvN   int
	recvErr syscall.Errno
	sendOff int
	sendCnt int
	sendErr syscall.Errno // the first refusal of a Send
	refused int           // datagrams refused in a Send
	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
}

// newBatchConn wraps conn for batch I/O, size messages per vector once
// loaded. Where the kernel supports UDP_SEGMENT the connection
// coalesces runs of equal-length sends to one peer into GSO
// super-datagrams; once loaded, where it takes UDP_GRO, each of the
// size messages a Recv drains may carry up to maxGSOSegs datagrams,
// and the slot set grows to match.
func newBatchConn(conn *net.UDPConn, size int, connected bool) (batchIO, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &mmsgConn{conn: conn, rc: rc, connected: connected, size: size, maxSegs: 1}
	if udpOption(rc, udpSegment, 0) { // the off value: a probe
		c.maxSegs = maxGSOSegs
	}
	if connected {
		c.load()
	} else {
		c.layout(min(idleBatch, size), maxDatagram, 1)
	}

	c.readFn = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&c.rhdrs[0])), uintptr(len(c.rhdrs)),
				msgDontwait, 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // park in the netpoller until readable
			}
			c.recvN, c.recvErr = int(n), errno
			return true
		}
	}
	c.writeFn = func(fd uintptr) bool {
		for c.sendOff < c.sendCnt {
			n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&c.shdrs[c.sendOff])), uintptr(c.sendCnt-c.sendOff),
				msgDontwait, 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // wait for writability, resume at sendOff
			}
			if errno != 0 {
				// The kernel refused message sendOff: drop it alone, keep
				// the first error, and go on with the rest.
				if c.sendErr == 0 {
					c.sendErr = errno
				}
				c.refused += c.ssegs[c.sendOff]
				c.sendOff++
				continue
			}
			c.sendOff += int(n)
		}
		return true
	}
	return c, nil
}

// load lays c out at its configured vector, with UDP_GRO on where the
// kernel takes it.
func (c *mmsgConn) load() {
	c.loaded = true
	c.gro = udpOption(c.rc, udpGRO, 1)
	if c.gro {
		c.layout(c.size, trainBuf, maxGSOSegs)
	} else {
		c.layout(c.size, maxDatagram, 1)
	}
}

// layout allocates every vector for msgs messages per system call,
// each received into a buffer of rlen bytes and cut into up to segs
// datagram slots.
func (c *mmsgConn) layout(msgs, rlen, segs int) {
	slots := msgs * segs
	c.rbufs = carve(msgs, rlen)
	c.rnames = carve(msgs, sockaddrStorage)
	c.rctls = make([]groCmsg, msgs)
	c.riovs = make([]syscall.Iovec, msgs)
	c.rhdrs = make([]mmsghdr, msgs)
	for i := range c.rhdrs {
		c.riovs[i] = syscall.Iovec{Base: &c.rbufs[i][0]}
		c.riovs[i].SetLen(rlen)
		h := &c.rhdrs[i].hdr
		h.Iov, h.Iovlen = &c.riovs[i], 1
		if !c.connected {
			h.Name = &c.rnames[i][0]
		}
		if c.gro {
			h.Control = (*byte)(unsafe.Pointer(&c.rctls[i]))
		}
	}
	c.msgOf = make([]uint16, slots)
	c.bt.recv = make([][]byte, slots)
	c.bt.send = make([][]byte, slots)
	c.bt.train = make([]byte, 0, slots*wire.ResponseHLCSize)
	c.siovs = make([]syscall.Iovec, slots)
	c.shdrs = make([]mmsghdr, msgs)
	c.ssegs = make([]int, msgs)
	c.sctls = make([]gsoCmsg, msgs)
	for i := range c.sctls {
		h := &c.sctls[i].hdr
		h.Level, h.Type = solUDP, udpSegment
		h.SetLen(syscall.CmsgLen(2))
	}
}

// carve cuts n buffers of each bytes from one allocation.
func carve(n, each int) [][]byte {
	arena := make([]byte, n*each)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = arena[i*each : (i+1)*each : (i+1)*each]
	}
	return bufs
}

func (c *mmsgConn) Batch() *ioBatch { return &c.bt }
func (c *mmsgConn) Close() error    { return c.conn.Close() }

// Peer decodes the sockaddr of the message receive slot i was cut from.
// The IPv6 zone is dropped: the value is for logs and the advertise
// handler, and replies are addressed from the raw sockaddr.
func (c *mmsgConn) Peer(i int) netip.AddrPort {
	name := c.rnames[c.msgOf[i]]
	port := binary.BigEndian.Uint16(name[2:4])
	switch (*syscall.RawSockaddr)(unsafe.Pointer(&name[0])).Family {
	case syscall.AF_INET:
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte(name[4:8])), port)
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16([16]byte(name[8:24])).Unmap(), port)
	}
	return netip.AddrPort{}
}

func (c *mmsgConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// Recv drains up to one vector of messages with one recvmmsg call (at
// least one, up to the batch size — the kernel returns whatever is
// queued, so batching degrades gracefully to per-packet under light
// load) and cuts them into datagram slots. Only the fields the kernel
// writes back are reset. An idle conn whose last Recv filled its vector
// loads first, while no slot of that batch is in use.
func (c *mmsgConn) Recv() (int, error) {
	if !c.loaded && c.recvN == len(c.rhdrs) {
		c.load() // the last Recv filled the idle vector
	}
	for i := range c.rhdrs {
		h := &c.rhdrs[i].hdr
		if !c.connected {
			h.Namelen = sockaddrStorage
		}
		if c.gro {
			h.SetControllen(int(unsafe.Sizeof(groCmsg{})))
		}
	}
	if err := c.rc.Read(c.readFn); err != nil {
		return 0, err
	}
	if c.recvErr != 0 {
		return 0, os.NewSyscallError("recvmmsg", c.recvErr)
	}
	k := 0
	for m := 0; m < c.recvN; m++ {
		k = c.split(m, k)
	}
	return k, nil
}

// split cuts received message m into slots from k on and returns the
// next free slot. A message without a UDP_GRO control message is one
// datagram. A train is one datagram per segment, the last possibly
// short. A train cut short — by the kernel at the end of its buffer
// (MSG_TRUNC), or here past maxGSOSegs slots — keeps its whole segments
// and ends in an empty slot for what was lost, which no parser accepts:
// it is counted, and nothing is mis-split.
func (c *mmsgConn) split(m, k int) int {
	h := &c.rhdrs[m]
	b := c.rbufs[m][:h.n]
	ctl := &c.rctls[m]
	if !c.gro || h.hdr.Controllen == 0 || ctl.hdr.Level != solUDP || ctl.hdr.Type != udpGRO || ctl.seg <= 0 {
		c.bt.recv[k], c.msgOf[k] = b, uint16(m)
		return k + 1
	}
	seg := int(ctl.seg)
	segs, cut := (len(b)+seg-1)/seg, h.hdr.Flags&syscall.MSG_TRUNC != 0
	if cut {
		segs = len(b) / seg
	}
	if segs > maxGSOSegs || cut && segs == maxGSOSegs {
		segs, cut = maxGSOSegs-1, true
	}
	for j := 0; j < segs; j++ {
		c.bt.recv[k], c.msgOf[k] = b[j*seg:min((j+1)*seg, len(b))], uint16(m)
		k++
	}
	if cut {
		c.bt.recv[k], c.msgOf[k] = b[:0], uint16(m)
		k++
	}
	return k
}

// Send transmits the prepared slots with as few sendmmsg calls as the
// kernel allows: one per vector pack fills. On an unconnected socket
// each reply is addressed to the sockaddr its request arrived from; a
// connected socket sends to its dialed peer. Partial sends resume where
// they left off, and a refused message is skipped.
func (c *mmsgConn) Send(n int) (int, error) {
	c.sendErr, c.refused = 0, 0
	for i := 0; i < n; {
		var cnt int
		cnt, i = c.pack(i, n)
		if cnt == 0 {
			break
		}
		c.sendOff, c.sendCnt = 0, cnt
		if err := c.rc.Write(c.writeFn); err != nil {
			return c.refused, err
		}
	}
	if c.sendErr != 0 {
		return c.refused, os.NewSyscallError("sendmmsg", c.sendErr)
	}
	return c.refused, nil
}

// pack fills shdrs with one message per run, starting at slot from,
// until the slots up to n are packed or the vector is full, and returns
// the message count and the first slot left over. A run is up to
// maxSegs consecutive non-empty slots of one length addressed to one
// peer; a run of several leaves with a UDP_SEGMENT control message
// naming the common length, which the kernel splits back into
// individual wire datagrams, and a run of one leaves plain. A slot
// whose bytes start where the run's last iovec ends extends that iovec,
// so a run written back to back in the train is one iovec.
func (c *mmsgConn) pack(from, n int) (cnt, next int) {
	iov := 0
	i := from
	for i < n && cnt < len(c.shdrs) {
		if len(c.bt.send[i]) == 0 {
			i++
			continue
		}
		first, start, segs := i, iov, 0
		for ; i < n && segs < c.maxSegs; i++ {
			b := c.bt.send[i]
			if len(b) == 0 {
				continue
			}
			if i != first && (len(b) != len(c.bt.send[first]) || !c.samePeer(first, i)) {
				break
			}
			segs++
			if iov > start && adjoins(&c.siovs[iov-1], b) {
				c.siovs[iov-1].Len += uint64(len(b))
				continue
			}
			c.siovs[iov] = syscall.Iovec{Base: &b[0]}
			c.siovs[iov].SetLen(len(b))
			iov++
		}
		h := &c.shdrs[cnt]
		h.hdr = syscall.Msghdr{Iov: &c.siovs[start], Iovlen: uint64(iov - start)}
		c.ssegs[cnt] = segs
		if segs > 1 {
			ctl := &c.sctls[cnt]
			ctl.seg = uint16(len(c.bt.send[first]))
			h.hdr.Control = (*byte)(unsafe.Pointer(ctl))
			h.hdr.SetControllen(int(unsafe.Sizeof(*ctl)))
		}
		if !c.connected {
			m := c.msgOf[first]
			h.hdr.Name = &c.rnames[m][0]
			h.hdr.Namelen = c.rhdrs[m].hdr.Namelen
		}
		h.n = 0
		cnt++
	}
	return cnt, i
}

// adjoins reports whether b starts where the bytes of v end.
func adjoins(v *syscall.Iovec, b []byte) bool {
	return uintptr(unsafe.Pointer(v.Base))+uintptr(v.Len) == uintptr(unsafe.Pointer(&b[0]))
}

// samePeer reports whether receive slots a and b carried the same
// source address: always on a connected socket (no names), and for two
// slots of one message.
func (c *mmsgConn) samePeer(a, b int) bool {
	if c.connected {
		return true
	}
	ma, mb := c.msgOf[a], c.msgOf[b]
	if ma == mb {
		return true
	}
	la, lb := c.rhdrs[ma].hdr.Namelen, c.rhdrs[mb].hdr.Namelen
	return la == lb && bytes.Equal(c.rnames[ma][:la], c.rnames[mb][:lb])
}
