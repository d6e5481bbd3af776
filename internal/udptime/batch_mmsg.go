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
)

// The Linux batch fast path: one recvmmsg system call drains up to a
// full batch of datagrams, one sendmmsg call answers them — the syscall
// cost per datagram falls by the batch factor, which is the entire win
// on a serving path whose per-packet work is a 16-byte parse and a
// 40-byte encode. The raw syscalls integrate with the runtime poller
// through syscall.RawConn: the callbacks return false on EAGAIN so the
// goroutine parks in the netpoller instead of spinning, and deadlines
// and Close behave exactly as they do for the stdlib read path.
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

// UDP generalized segmentation offload. Batching system calls with
// sendmmsg amortizes only the syscall entry: on the loopback (and on
// most NICs) each datagram still traverses the full IP send path
// inline. Because every message of this protocol has one of a few
// fixed sizes (requests 16 or 32 bytes, responses 40 or 56), a run of
// equal-length datagrams to one peer can instead be handed to the
// kernel as a single super-datagram — one stack traversal that the
// kernel splits back into wire-identical individual datagrams at the
// device layer. That is where the batch backend's throughput multiple
// over per-packet serving comes from. The segment size rides on each
// multi-segment message as a UDP_SEGMENT control message, not on the
// socket, so runs of different lengths share a sendmmsg vector and a
// lone datagram of any length goes out plain.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT (Linux 4.18+)
	maxGSOSegs = 64  // UDP_MAX_SEGMENTS floor across supported kernels
)

// gsoCmsg is one UDP_SEGMENT control message: a cmsghdr, the 16-bit
// segment size, and padding up to CMSG_SPACE(2).
type gsoCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
	_   [6]byte
}

// gsoSupported reports whether the kernel knows UDP_SEGMENT on this
// socket's address family, by writing the option's off value: the one
// probe made at construction. Without it every datagram is its own
// message.
func gsoSupported(rc syscall.RawConn) bool {
	var serr error
	cerr := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0)
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

// mmsgConn is a batchIO over recvmmsg/sendmmsg. All vectors — buffers,
// iovecs, message headers, sockaddr storage — are laid out once at
// construction; Recv and Send only rewrite pointers and lengths.
type mmsgConn struct {
	conn      *net.UDPConn
	rc        syscall.RawConn
	bt        ioBatch
	connected bool
	maxSegs   int // datagrams per message: maxGSOSegs with GSO, else 1

	rbufs  [][]byte // full-length receive backing arrays
	rnames [][]byte // per-slot sockaddr storage
	riovs  []syscall.Iovec
	rhdrs  []mmsghdr
	siovs  []syscall.Iovec
	shdrs  []mmsghdr
	sctls  []gsoCmsg // per-message control buffers, headers prefilled

	// Results ferried out of the raw-access callbacks, which are built
	// once here so the hot path never allocates a closure.
	recvN   int
	recvErr syscall.Errno
	sendOff int
	sendCnt int
	sendErr syscall.Errno
	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
}

// newBatchConn wraps conn for batch I/O. Where the kernel supports
// UDP_SEGMENT the connection coalesces runs of equal-length sends to
// one peer into GSO super-datagrams.
func newBatchConn(conn *net.UDPConn, size int, connected bool) (batchIO, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &mmsgConn{conn: conn, rc: rc, connected: connected, maxSegs: 1}
	if gsoSupported(rc) {
		c.maxSegs = maxGSOSegs
	}
	c.bt, c.rbufs = newIOBatch(size)
	c.rnames = make([][]byte, size)
	for i := range c.rnames {
		c.rnames[i] = make([]byte, sockaddrStorage)
	}
	c.riovs = make([]syscall.Iovec, size)
	c.rhdrs = make([]mmsghdr, size)
	c.siovs = make([]syscall.Iovec, size)
	c.shdrs = make([]mmsghdr, size)
	c.sctls = make([]gsoCmsg, size)
	for i := range c.sctls {
		h := &c.sctls[i].hdr
		h.Level, h.Type = solUDP, udpSegment
		h.SetLen(syscall.CmsgLen(2))
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
				c.sendErr = errno
				return true
			}
			c.sendOff += int(n)
		}
		return true
	}
	return c, nil
}

func (c *mmsgConn) Batch() *ioBatch { return &c.bt }
func (c *mmsgConn) Close() error    { return c.conn.Close() }

// Peer decodes receive slot i's sockaddr. The IPv6 zone is dropped: the
// value is for logs and the advertise handler, and replies are
// addressed from the raw sockaddr.
func (c *mmsgConn) Peer(i int) netip.AddrPort {
	name := c.rnames[i]
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

// Recv fills the receive slots from one recvmmsg call (at least one
// datagram, up to the batch size — the kernel returns whatever is
// queued, so batching degrades gracefully to per-packet under light
// load).
func (c *mmsgConn) Recv() (int, error) {
	for i := range c.rhdrs {
		c.riovs[i] = syscall.Iovec{Base: &c.rbufs[i][0]}
		c.riovs[i].SetLen(maxDatagram)
		h := &c.rhdrs[i]
		h.hdr = syscall.Msghdr{Iov: &c.riovs[i], Iovlen: 1}
		if !c.connected {
			h.hdr.Name = &c.rnames[i][0]
			h.hdr.Namelen = sockaddrStorage
		}
		h.n = 0
	}
	if err := c.rc.Read(c.readFn); err != nil {
		return 0, err
	}
	if c.recvErr != 0 {
		return 0, os.NewSyscallError("recvmmsg", c.recvErr)
	}
	n := c.recvN
	for i := 0; i < n; i++ {
		c.bt.recv[i] = c.rbufs[i][:c.rhdrs[i].n]
	}
	return n, nil
}

// Send transmits the prepared reply slots with as few sendmmsg calls as
// the kernel allows. On an unconnected socket each reply is addressed
// to the sockaddr its request arrived from; a connected socket sends to
// its dialed peer. Partial sends resume where they left off.
func (c *mmsgConn) Send(n int) error {
	cnt := c.pack(n)
	if cnt == 0 {
		return nil
	}
	c.sendOff, c.sendCnt, c.sendErr = 0, cnt, 0
	if err := c.rc.Write(c.writeFn); err != nil {
		return err
	}
	if c.sendErr != 0 {
		return os.NewSyscallError("sendmmsg", c.sendErr)
	}
	return nil
}

// pack fills shdrs with one message per run and returns the message
// count. A run is up to maxSegs consecutive non-empty slots of one
// length addressed to one peer; a run of several leaves as a
// scatter-gather list with a UDP_SEGMENT control message naming the
// common length, which the kernel splits back into individual wire
// datagrams, and a run of one leaves plain.
func (c *mmsgConn) pack(n int) int {
	cnt, iov := 0, 0
	for i := 0; i < n; {
		if len(c.bt.send[i]) == 0 {
			i++
			continue
		}
		first, start := i, iov
		for ; i < n && iov-start < c.maxSegs; i++ {
			b := c.bt.send[i]
			if len(b) == 0 {
				continue
			}
			if i != first && (len(b) != len(c.bt.send[first]) || !c.samePeer(first, i)) {
				break
			}
			c.siovs[iov] = syscall.Iovec{Base: &b[0]}
			c.siovs[iov].SetLen(len(b))
			iov++
		}
		h := &c.shdrs[cnt]
		h.hdr = syscall.Msghdr{Iov: &c.siovs[start], Iovlen: uint64(iov - start)}
		if iov-start > 1 {
			ctl := &c.sctls[cnt]
			ctl.seg = uint16(len(c.bt.send[first]))
			h.hdr.Control = (*byte)(unsafe.Pointer(ctl))
			h.hdr.SetControllen(int(unsafe.Sizeof(*ctl)))
		}
		if !c.connected {
			h.hdr.Name = &c.rnames[first][0]
			h.hdr.Namelen = c.rhdrs[first].hdr.Namelen
		}
		h.n = 0
		cnt++
	}
	return cnt
}

// samePeer reports whether receive slots a and b carried the same
// source address; always true on a connected socket (no names).
func (c *mmsgConn) samePeer(a, b int) bool {
	if c.connected {
		return true
	}
	la, lb := c.rhdrs[a].hdr.Namelen, c.rhdrs[b].hdr.Namelen
	return la == lb && bytes.Equal(c.rnames[a][:la], c.rnames[b][:lb])
}
