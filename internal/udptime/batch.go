package udptime

import (
	"net"
	"net/netip"
	"time"

	"disttime/internal/wire"
)

// maxDatagram is the largest datagram any path of the service handles;
// requests and responses are tiny, advertise messages bounded, so 2 KiB
// leaves generous headroom while keeping batch buffers cache-friendly.
const maxDatagram = 2048

// Batch I/O size limits. A batch is one recvmmsg/sendmmsg vector on the
// Linux fast path; the per-packet backend moves one datagram per system
// call but keeps the same slot discipline so the serving code is
// identical.
const (
	defaultBatch = 32
	maxBatch     = 512
)

// ioBatch is one reusable set of datagram slots shared between a batch
// connection and its handler. After Recv fills recv[0:n], the handler
// empties train, puts a datagram in each slot it wants answered and
// calls Send(n). All slices alias buffers the connection retains, and
// replaces at most once, when an idle Linux batch conn loads (see
// mmsgConn): the steady-state serving path allocates nothing per batch.
//
// A slot is a datagram, not a message. The connection moves up to its
// batch size of messages per system call; with UDP GRO one received
// message can be a train of datagrams from one source, cut into
// consecutive slots that share that source, so a batch has up to
// maxGSOSegs slots per message.
type ioBatch struct {
	// recv[i] is the i-th received datagram, valid until the next Recv.
	recv [][]byte
	// send[i] is the i-th outgoing datagram, a view into train made by
	// put; empty means "no datagram for this slot".
	send [][]byte
	// train holds a batch's outgoing datagrams back to back, so a run of
	// them to one peer is one buffer the kernel cuts at the segment size
	// (UDP GSO). It has room for every slot's largest reply,
	// wire.ResponseHLCSize; a longer datagram still goes out, from a
	// grown copy that the slots before it do not adjoin.
	train []byte
}

// put makes out, the train with one datagram appended, slot i's
// datagram. The view ends at its own capacity, so an append to it
// cannot overwrite the next slot's bytes.
func (bt *ioBatch) put(i int, out []byte) {
	bt.send[i] = out[len(bt.train):len(out):len(out)]
	bt.train = out
}

// batchIO is the batched datagram transport behind the serving and load
// paths. Implementations are single-goroutine on the Recv/Send side
// (each shard owns its connection) but Close may race with both.
//
// Two modes exist: an unconnected (server) socket replies to the peer
// each slot's datagram arrived from, and a connected (client) socket
// sends to its dialed peer. On a connected socket Send may be called
// without a prior Recv (the load generator's opening window); on an
// unconnected socket every Send slot echoes the matching Recv slot's
// source address.
type batchIO interface {
	// Batch returns the connection's reusable slot set.
	Batch() *ioBatch
	// Recv blocks until at least one datagram arrives and fills
	// Batch().recv[0:n]. It honors SetReadDeadline.
	Recv() (n int, err error)
	// Send transmits Batch().send[i] for i < n, skipping empty slots. A
	// datagram the kernel refuses (one addressed to source port 0, say)
	// is dropped alone and the rest still go: Send returns how many were
	// refused and the first refusal's error. A closed socket ends it with
	// net.ErrClosed.
	Send(n int) (refused int, err error)
	// Peer returns the source address of the datagram in receive slot i
	// of an unconnected socket, for the paths that need it as a value
	// (logging, the advertise handler); Send addresses replies itself.
	Peer(i int) netip.AddrPort
	SetReadDeadline(t time.Time) error
	Close() error
}

// newIOBatch allocates a slot set of size slots with an empty train;
// the receive slots are filled as views of the backend's own buffers.
func newIOBatch(size int) ioBatch {
	return ioBatch{
		recv:  make([][]byte, size),
		send:  make([][]byte, size),
		train: make([]byte, 0, size*wire.ResponseHLCSize),
	}
}

// clampBatch normalizes a configured batch size.
func clampBatch(n int) int {
	switch {
	case n <= 0:
		return defaultBatch
	case n > maxBatch:
		return maxBatch
	default:
		return n
	}
}

// listenUDP binds a UDP listener on addr. With reuse set the socket is
// opened with SO_REUSEPORT before bind so several shard listeners can
// share one port, letting the kernel spread datagrams across them; on
// platforms without SO_REUSEPORT that mode returns an error and the
// caller must run a single shard.
func listenUDP(addr string, reuse bool) (*net.UDPConn, error) {
	if !reuse {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		return net.ListenUDP("udp", udpAddr)
	}
	return listenReusePort(addr)
}
