package udptime

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// Server is a UDP time server: it answers each request with a reading
// of its ClockSource taken between the request's arrival and the reply
// (rule MM-1). It speaks every wire version — version-1 requests,
// version-3 requests carrying a hybrid-logical-clock timestamp, and
// version-2 membership advertisements when a Peer installs their
// handler — on one serving loop per shard: receive a batch of datagrams
// through a batchIO, read the source once, answer the well-formed
// requests with that reading, send the replies. Every request of the
// batch was sent before Recv returned and no reply leaves before Send,
// so the one reading lies between send and receipt for all of them.
//
// The two constructors differ only in what they put under that loop.
// NewServer runs one shard on the per-packet backend: a batch of one, a
// clock read per request. NewBatchServer runs BatchConfig.Shards shards
// on the platform's batch backend (recvmmsg/sendmmsg with GSO and GRO
// on linux/amd64 and linux/arm64): a clock read per batch.
//
// With WithHealthListener the server also serves /healthz,
// Prometheus-style /metrics, and pprof over HTTP.
type Server struct {
	id  uint64
	src ClockSource

	// hlc is the server's hybrid logical clock, always on: every
	// version-3 exchange folds the client's timestamp in and stamps the
	// reply, so RPCs double as hlc.Update edges.
	hlc *hlc.Clock

	// conn is shard 0's socket: the bound address, and the socket a
	// Peer's membership manager sends its gossip from.
	conn   *net.UDPConn
	shards []batchIO
	loops  sync.WaitGroup

	requests  atomic.Uint64
	malformed atomic.Uint64

	// advertise, when non-nil, receives parsed membership heartbeats
	// (wire.TypeAdvertise datagrams) from whichever shard they reach;
	// without it they count as malformed, which is exactly how a
	// pre-membership server treats them.
	advertise func(from *net.UDPAddr, entries []wire.MemberEntry)

	// Observability (see health.go). The obs handles are nil without a
	// registry; obs methods are nil-safe, so the loop bumps them
	// unconditionally.
	reg          *obs.Registry
	obsRequests  *obs.Counter
	obsMalformed *obs.Counter
	obsBatches   *obs.Counter
	obsBatchFill *obs.LogHistogram
	obsSendErrs  *obs.Counter
	healthAddr   string
	healthLn     net.Listener
	health       *http.Server

	closeOnce sync.Once
	closeErr  error
}

// ServerOption configures a Server.
type ServerOption interface {
	applyServer(*Server)
}

// advertiseOption installs the membership dispatch: version-2 advertise
// datagrams are handed to the handler instead of the request parser.
// Internal — membership is enabled through PeerConfig.Seeds, not as a
// standalone server option.
type advertiseOption struct {
	handler func(from *net.UDPAddr, entries []wire.MemberEntry)
}

func (o advertiseOption) applyServer(s *Server) { s.advertise = o.handler }

// BatchConfig sizes a NewBatchServer server.
type BatchConfig struct {
	// Shards is the number of serving loops, each bound to its own
	// SO_REUSEPORT listener on the serving port; the kernel hashes
	// incoming datagrams across them. Zero means one shard. More than
	// one shard requires SO_REUSEPORT support (Linux and the BSDs).
	Shards int
	// Batch is the number of messages moved per recvmmsg/sendmmsg
	// vector on the Linux fast path (zero means 32, capped at 512).
	// Where the kernel takes UDP_GRO, one received message can carry up
	// to 64 datagrams sent as a train from one socket. The per-packet
	// backend moves one datagram whatever the value.
	Batch int
	// Registry resolves the server's metrics (nil leaves them inert);
	// shorthand for WithServerObservability.
	Registry *obs.Registry
}

// NewServer starts a time server listening on addr (e.g. "127.0.0.1:0")
// answering with readings from src, identifying itself as id: one
// shard, one datagram per system call, one clock read per request. The
// server runs until Close.
func NewServer(addr string, id uint64, src ClockSource, opts ...ServerOption) (*Server, error) {
	return newServer(addr, id, src, BatchConfig{Shards: 1, Batch: 1}, newPacketConn, opts)
}

// NewBatchServer starts a sharded server on addr that moves datagrams
// in batches where the platform can and stamps every reply of a batch
// with one <C, E> reading taken between the batch's receipt and its
// send, so replies under load cost neither a clock read nor a system
// call apiece. It answers the same protocol, byte for byte, as a
// NewServer server. A bind failure on any shard (for example a busy
// port) tears down the shards already bound and returns the listener's
// error.
func NewBatchServer(addr string, id uint64, src ClockSource, cfg BatchConfig, opts ...ServerOption) (*Server, error) {
	if cfg.Registry != nil {
		opts = append([]ServerOption{WithServerObservability(cfg.Registry)}, opts...)
	}
	cfg.Batch = clampBatch(cfg.Batch)
	return newServer(addr, id, src, cfg, newBatchConn, opts)
}

// newServer is the one constructor: cfg gives the shape, newConn the
// backend each shard's socket is wrapped in.
func newServer(addr string, id uint64, src ClockSource, cfg BatchConfig,
	newConn func(conn *net.UDPConn, size int, connected bool) (batchIO, error), opts []ServerOption) (*Server, error) {
	if src == nil {
		return nil, errors.New("udptime: nil clock source")
	}
	shards := max(cfg.Shards, 1)
	s := &Server{id: id, src: src, hlc: hlc.New(uint32(id))}
	for _, o := range opts {
		o.applyServer(s)
	}
	if s.reg != nil {
		s.reg.Gauge("udptime_server_shards").Set(float64(shards))
	}

	bindTo := addr
	for i := 0; i < shards; i++ {
		conn, err := listenUDP(bindTo, shards > 1)
		if err != nil {
			s.closeShards()
			return nil, fmt.Errorf("udptime: bind shard %d of %d on %q: %w", i, shards, bindTo, err)
		}
		_ = conn.SetReadBuffer(1 << 20)
		_ = conn.SetWriteBuffer(1 << 20)
		bc, err := newConn(conn, cfg.Batch, false)
		if err != nil {
			conn.Close()
			s.closeShards()
			return nil, fmt.Errorf("udptime: shard %d raw conn: %w", i, err)
		}
		s.shards = append(s.shards, bc)
		if i == 0 {
			s.conn = conn
			// Later shards must join the concrete port shard 0 got,
			// even when addr asked for :0.
			bindTo = conn.LocalAddr().String()
		}
	}
	if err := s.startHealth(); err != nil {
		s.closeShards()
		return nil, err
	}
	for _, bc := range s.shards {
		s.loops.Add(1)
		go s.serve(bc)
	}
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() *net.UDPAddr {
	addr, _ := s.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// Shards returns the number of serving loops.
func (s *Server) Shards() int { return len(s.shards) }

// Requests returns how many well-formed requests the server has
// answered across all shards.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// MalformedDatagrams returns how many datagrams failed to parse.
func (s *Server) MalformedDatagrams() uint64 { return s.malformed.Load() }

// Close stops every shard and the health listener (if any) and waits
// for the serving loops to drain, including batches in flight. It is
// idempotent and safe to call from several goroutines at once; every
// call returns the same result.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeHealth()
		s.closeErr = s.closeShards()
		s.loops.Wait()
	})
	return s.closeErr
}

// closeShards closes every bound socket and returns the first error.
func (s *Server) closeShards() error {
	var first error
	for _, bc := range s.shards {
		if err := bc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serve drains one shard's socket until it is closed: receive a batch,
// read the clock, answer every well-formed request, send the replies.
// It is the only code that reads a server socket.
func (s *Server) serve(bc batchIO) {
	defer s.loops.Done()
	bt := bc.Batch()
	for {
		n, err := bc.Recv()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient receive failure (spurious ICMP, truncation):
			// count it and keep serving.
			s.malformed.Add(1)
			s.obsMalformed.Inc()
			continue
		}
		s.obsBatches.Inc()
		s.obsBatchFill.Observe(float64(n))
		// Every request of the batch was sent before Recv returned and no
		// reply is received before Send: this one reading is rule MM-1's
		// for all of them.
		c, maxErr, synced := s.src.Now()
		served := s.respond(bt, n, c, maxErr, synced)
		if served < n && s.advertise != nil {
			s.unanswered(bc, n)
		}
		if served == 0 {
			continue
		}
		if refused, err := bc.Send(n); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.obsSendErrs.Add(uint64(refused))
		}
	}
}

// respond fills bt.send[i] for every well-formed request in
// bt.recv[0:n] with the batch's reading <c, maxErr, synced>,
// dispatching on the wire type — a version-1 reply, or a version-3
// reply that folds the client's timestamp into the server's hybrid
// logical clock and stamps the receive event — and returns how many
// replies it prepared. The replies are written back to back in the
// train. The HLC wall is the reading's latest bound C+E, so the stamped
// physical component never trails true time while the clock is
// contained. Everything else leaves its slot empty: malformed datagrams
// are counted here, once per batch; advertisements with a handler
// installed are left for unanswered.
func (s *Server) respond(bt *ioBatch, n int, c time.Time, maxErr time.Duration, synced bool) int {
	served := 0
	var bad uint64
	bt.train = bt.train[:0]
	for i := 0; i < n; i++ {
		bt.send[i] = nil
		in := bt.recv[i]
		typ, _ := wire.PeekType(in)
		if typ == wire.TypeAdvertise && s.advertise != nil {
			continue
		}
		v3 := typ == wire.TypeRequestHLC
		var reqID uint64
		var remote hlc.Timestamp
		var err error
		if v3 {
			var req wire.RequestHLC
			req, err = wire.ParseRequestHLC(in)
			reqID, remote = req.ReqID, req.TS
		} else {
			var req wire.Request
			req, err = wire.ParseRequest(in)
			reqID = req.ReqID
		}
		if err != nil {
			bad++
			continue
		}
		resp := wire.Response{
			ReqID:          reqID,
			ServerID:       s.id,
			Clock:          c,
			MaxError:       maxErr,
			Unsynchronized: !synced,
		}
		var out []byte
		if v3 {
			ts := s.hlc.Update(c.Add(maxErr).UnixNano(), remote)
			out, err = wire.AppendResponseHLC(bt.train, wire.ResponseHLC{Response: resp, TS: ts})
		} else {
			out, err = wire.AppendResponse(bt.train, resp)
		}
		if err != nil {
			bad++
			continue
		}
		bt.put(i, out)
		served++
	}
	if served > 0 {
		s.requests.Add(uint64(served))
		s.obsRequests.Add(uint64(served))
	}
	if bad > 0 {
		s.malformed.Add(bad)
		s.obsMalformed.Add(bad)
	}
	return served
}

// unanswered is the cold path over the slots respond left empty when a
// Peer has installed the advertise handler: membership heartbeats go to
// it, and one that fails to parse is counted as malformed. It may
// allocate, which is why it sits outside respond, which an AllocsPerRun
// test holds at zero.
func (s *Server) unanswered(bc batchIO, n int) {
	bt := bc.Batch()
	for i := 0; i < n; i++ {
		if len(bt.send[i]) != 0 {
			continue
		}
		in := bt.recv[i]
		if typ, _ := wire.PeekType(in); typ != wire.TypeAdvertise {
			continue
		}
		_, entries, err := wire.ParseAdvertise(in)
		if err != nil {
			s.malformed.Add(1)
			s.obsMalformed.Inc()
			continue
		}
		s.advertise(net.UDPAddrFromAddrPort(bc.Peer(i)), entries)
	}
}

// NewServeBatchBench builds a detached serving pipeline — system
// clock, responder, one preassembled batch of well-formed version-1
// requests — and returns a pump that does what serve does between Recv
// and Send once: read the clock, push the whole batch through the
// responder. It returns the number of replies prepared. It exists for
// cmd/bench's udptime.responder.ns_per_req stage.
func NewServeBatchBench(batch int) func() int {
	batch = clampBatch(batch)
	src, err := NewSystemClock(0, 50)
	if err != nil {
		panic(err)
	}
	s := &Server{id: 1, src: src, hlc: hlc.New(1)}
	bt, rbufs := newIOBatch(batch)
	for i := range rbufs {
		bt.recv[i] = wire.AppendRequest(rbufs[i][:0], wire.Request{ReqID: uint64(i) + 1})
	}
	return func() int {
		c, maxErr, synced := src.Now()
		return s.respond(&bt, batch, c, maxErr, synced)
	}
}
