package udptime

import (
	"errors"
	"net"
	"time"

	"disttime/internal/member"
	"disttime/internal/obs"
)

// Peer is a complete time-service member over UDP: it answers rule MM-1
// readings from a disciplined local clock while a background syncer keeps
// that clock disciplined against its peers — the composition every server
// of the paper's service runs. Until its first successful round the peer
// answers with the Unsynchronized flag set, and clients ignore it.
//
// With Seeds configured the peer is roster-backed: it learns the cluster
// through membership gossip (version-2 advertise datagrams), runs a
// drift-aware failure detector over heartbeat freshness, and re-resolves
// its poll targets every sync round to the live members with the
// smallest advertised maximum error.
type Peer struct {
	clock      *DisciplinedClock
	server     *Server
	syncer     *Syncer
	membership *membership
}

// PeerConfig configures a Peer.
type PeerConfig struct {
	// Addr is the UDP address to serve on (e.g. "127.0.0.1:0"). With
	// Seeds, serve on a concrete host so the advertised address is
	// reachable by the other members.
	Addr string
	// ID is the peer's server identity.
	ID uint64
	// Clock is the disciplined clock to serve and steer; its drift bound
	// is the peer's claimed δ. Required.
	Clock *DisciplinedClock
	// Peers are the other members to synchronize against. May be empty
	// when Seeds are given (the roster then supplies the poll targets);
	// at least one of Peers and Seeds is required.
	Peers []string
	// Seeds are bootstrap member addresses: configuring any enables
	// dynamic membership. The peer announces itself to the seeds,
	// learns the full roster through gossip, and polls the best-ranked
	// live members instead of a static list. Peers, when also set, act
	// as a static fallback while the roster is still empty.
	Seeds []string
	// Membership tunes gossip (zero value: 1 s; the detector allows 3
	// misses and a 500 ms delay bound). Ignored without Seeds.
	Membership MembershipConfig
	// Interval is the sync period (the paper's tau); defaults to 64 s.
	Interval time.Duration
	// Timeout bounds each query; defaults to one second.
	Timeout time.Duration
	// Selection enables falseticker rejection.
	Selection bool
	// Metrics, when non-nil, receives the peer's observability: the
	// syncer's round counters and histograms plus, with Seeds, the
	// membership gauges (alive/known members) and gossip counters.
	Metrics *obs.Registry
	// OnSync observes each synchronization round.
	OnSync func(SyncReport)
}

// NewPeer starts a peer: a server answering on Addr and a syncer
// disciplining its clock against Peers, the roster, or both.
func NewPeer(cfg PeerConfig) (*Peer, error) { return newPeer(cfg, NewServer) }

// newServerFunc is the shape of NewServer.
type newServerFunc = func(addr string, id uint64, src ClockSource, opts ...ServerOption) (*Server, error)

// newPeer is NewPeer over either server constructor; the membership
// tests run the cluster once per serving backend through it.
func newPeer(cfg PeerConfig, listen newServerFunc) (*Peer, error) {
	if len(cfg.Peers) == 0 && len(cfg.Seeds) == 0 {
		return nil, errors.New("udptime: peer needs at least one peer address")
	}
	dc := cfg.Clock
	if dc == nil {
		return nil, errors.New("udptime: peer needs a clock")
	}
	var m *membership
	var opts []ServerOption
	if len(cfg.Seeds) > 0 {
		m = newMembership(dc, dc.DriftPPM(), cfg.Membership, cfg.Metrics)
		opts = append(opts, advertiseOption{handler: m.handleAdvertise})
	}
	server, err := listen(cfg.Addr, cfg.ID, dc, opts...)
	if err != nil {
		return nil, err
	}
	if m != nil {
		if err := m.bind(server.conn, cfg.ID, cfg.Seeds); err != nil {
			server.Close()
			return nil, err
		}
	}
	scfg := SyncerConfig{
		Servers:   cfg.Peers,
		Interval:  cfg.Interval,
		Timeout:   cfg.Timeout,
		Selection: cfg.Selection,
		Metrics:   cfg.Metrics,
		OnSync:    cfg.OnSync,
	}
	if m != nil {
		scfg.Targets = m.Targets
	}
	syncer, err := NewSyncer(dc, scfg)
	if err != nil {
		if m != nil {
			m.close()
		}
		server.Close()
		return nil, err
	}
	return &Peer{clock: dc, server: server, syncer: syncer, membership: m}, nil
}

// Clock returns the peer's disciplined clock.
func (p *Peer) Clock() *DisciplinedClock { return p.clock }

// Addr returns the peer's serving address.
func (p *Peer) Addr() *net.UDPAddr { return p.server.Addr() }

// Requests returns how many requests the peer has answered.
func (p *Peer) Requests() uint64 { return p.server.Requests() }

// Rounds returns how many synchronization rounds have completed.
func (p *Peer) Rounds() int { return p.syncer.Rounds() }

// Members returns the peer's roster in increasing address order, or nil
// without dynamic membership.
func (p *Peer) Members() []member.Entry[string] {
	if p.membership == nil {
		return nil
	}
	return p.membership.Members()
}

// Close stops the syncer, announces a voluntary departure to the
// roster (with Seeds), and shuts the server down, waiting for all.
func (p *Peer) Close() error {
	p.syncer.Stop()
	if p.membership != nil {
		p.membership.close()
	}
	return p.server.Close()
}
