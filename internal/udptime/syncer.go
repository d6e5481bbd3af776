package udptime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"disttime/internal/core"
	"disttime/internal/obs"
)

// Syncer is the client-side daemon: it periodically queries a set of time
// servers and disciplines a local clock, using either the plain
// intersection (rule IM-2) or fault-tolerant selection, then Section 3
// recovery through the clock's core.Node. It owns one background
// goroutine; Stop signals it and waits for it to exit.
type Syncer struct {
	cfg      SyncerConfig
	dc       *DisciplinedClock
	client   *Client
	passes   obs.PassMetrics // every pass, under "udptime"
	failures *obs.Counter    // udptime_sync_failures_total: rounds with an error

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu     sync.Mutex
	rounds int
}

// SyncerConfig configures a Syncer.
type SyncerConfig struct {
	// Servers are the time-server addresses to poll. Required unless
	// Targets is set.
	Servers []string
	// Targets, when non-nil, supplies the addresses to poll, consulted
	// afresh at the start of every round — the hook roster-backed peers
	// use to re-resolve their poll set as membership changes. When it
	// returns an empty slice the round falls back to Servers; if both
	// are empty the round fails (and the clock keeps deteriorating per
	// its drift bound, as with any other round failure).
	Targets func() []string
	// Interval is the polling period (the paper's tau). Defaults to 64 s.
	Interval time.Duration
	// Timeout bounds each per-server query. Defaults to one second.
	Timeout time.Duration
	// Selection enables falseticker rejection (core.SelectIM) instead of
	// the plain intersection (core.IM).
	Selection bool
	// Metrics, when non-nil, receives the syncer's observability: every
	// pass through obs.PassMetrics under the "udptime" prefix, a counter
	// of the rounds that failed, and the underlying client's query
	// counters and RTT histogram.
	Metrics *obs.Registry
	// OnSync, when non-nil, observes every completed round. It is called
	// from the syncer's goroutine; it must not block for long.
	OnSync func(SyncReport)
}

// SyncReport describes one synchronization round: the pass it ran and
// the two facts a pass cannot carry.
type SyncReport struct {
	// Measurements is how many servers answered.
	Measurements int
	// Pass is the record of the round's pass, nil when none ran: no
	// server answered, or no answer was synchronized. An inconsistent
	// pass, which left the clock as it was (Before == After), is
	// reported with Err set.
	Pass *core.Pass
	// Err is the round's failure, if any. The clock is untouched on
	// failure and keeps deteriorating per its drift bound.
	Err error
}

// NewSyncer starts a syncer disciplining dc. The first round runs
// immediately; subsequent rounds run every Interval until Stop.
func NewSyncer(dc *DisciplinedClock, cfg SyncerConfig) (*Syncer, error) {
	if dc == nil {
		return nil, errors.New("udptime: nil disciplined clock")
	}
	if len(cfg.Servers) == 0 && cfg.Targets == nil {
		return nil, errors.New("udptime: syncer needs at least one server")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 64 * time.Second
	}
	// Measurements carry the clock's own drift bound, the δ its node charges.
	clientOpts := []ClientOption{WithSyncOptions(SyncOptions{Delta: dc.DriftPPM() / 1e6})}
	if cfg.Metrics != nil {
		clientOpts = append(clientOpts, WithClientObservability(cfg.Metrics))
	}
	s := &Syncer{
		cfg:    cfg,
		dc:     dc,
		client: NewClient(cfg.Timeout, dc, clientOpts...),
		passes: obs.NewPassMetrics(cfg.Metrics, "udptime"),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.Metrics != nil {
		s.failures = cfg.Metrics.Counter("udptime_sync_failures_total")
	}
	go s.run()
	return s, nil
}

// Stop halts the syncer, waits for its goroutine to exit, and closes the
// client's sockets. It is idempotent.
func (s *Syncer) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	s.client.Close()
}

// Rounds returns how many rounds have completed (including failed ones).
func (s *Syncer) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

func (s *Syncer) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	s.round()
	for {
		select {
		case <-ticker.C:
			s.round()
		case <-s.stop:
			return
		}
	}
}

// targets resolves this round's poll set: the dynamic hook when it
// yields addresses, the static server list otherwise.
func (s *Syncer) targets() []string {
	if s.cfg.Targets != nil {
		if t := s.cfg.Targets(); len(t) > 0 {
			return t
		}
	}
	return s.cfg.Servers
}

func (s *Syncer) round() {
	servers := s.targets()
	ms, qerr := s.client.QueryMany(servers)
	report := SyncReport{Measurements: len(ms)}
	switch {
	case len(servers) == 0:
		report.Err = errors.New("udptime: no poll targets")
	case len(ms) == 0:
		report.Err = fmt.Errorf("udptime: no servers answered: %w", qerr)
	default:
		var fn core.SyncFunc = core.IM{}
		if s.cfg.Selection {
			fn = core.SelectIM{}
		}
		var p core.Pass
		if p, report.Err = s.dc.sync(fn, true, ms); !errors.Is(report.Err, ErrNoMeasurements) {
			report.Pass = &p
			s.passes.Observe(p)
		}
	}
	if report.Err != nil {
		s.failures.Inc()
	}
	// Count the round before reporting it, so an OnSync receiver that
	// reads Rounds sees its round included.
	s.mu.Lock()
	s.rounds++
	s.mu.Unlock()
	if s.cfg.OnSync != nil {
		s.cfg.OnSync(report)
	}
}
