package disttime

import (
	"time"

	"disttime/internal/clock"
	"disttime/internal/core"
	"disttime/internal/hlc"
	"disttime/internal/interval"
	"disttime/internal/member"
	"disttime/internal/obs"
	"disttime/internal/service"
	"disttime/internal/simnet"
	"disttime/internal/txn"
	"disttime/internal/udptime"
)

// Interval algebra and fault-tolerant selection (internal/interval). An
// Interval is a closed range [Lo, Hi] of real time in seconds;
// FromEstimate builds [C-E, C+E] from a reading.
type (
	// Interval is a closed real-time interval in seconds.
	Interval = interval.Interval
	// IntervalGroup is one maximal mutually-consistent subset of a set of
	// intervals (one shaded region of the paper's Figure 4).
	IntervalGroup = interval.Group
	// Best is the result of Marzullo's fault-tolerant intersection.
	Best = interval.Best
	// Selection is the outcome of Select: the agreed region, the
	// survivors and the falsetickers.
	Selection = interval.Selection
)

// Interval constructors and algorithms.
var (
	// NewInterval returns [lo, hi], rejecting inverted bounds.
	NewInterval = interval.New
	// FromEstimate returns [c-e, c+e].
	FromEstimate = interval.FromEstimate
	// Consistent reports whether two intervals overlap (the paper's
	// consistency predicate |Ci - Cj| <= Ei + Ej).
	Consistent = interval.Consistent
	// IntersectAll intersects a set of intervals.
	IntersectAll = interval.IntersectAll
	// Marzullo finds the interval contained in the largest number of
	// source intervals (Marzullo's algorithm, as used by NTP).
	Marzullo = interval.Marzullo
	// MarzulloAtLeast finds the leftmost region covered by at least m
	// sources.
	MarzulloAtLeast = interval.MarzulloAtLeast
	// Select is majority selection over Marzullo's sweep: it splits the
	// intervals into survivors and falsetickers, or reports that no
	// majority agrees.
	Select = interval.Select
	// ConsistencyGroups decomposes intervals into maximal
	// mutually-consistent subsets.
	ConsistencyGroups = interval.ConsistencyGroups
)

// Time-server protocol engine (internal/core): the paper's rules MM-1,
// MM-2, and IM-2 plus the baseline synchronization functions.
type (
	// Server is one time server's synchronization state (rule MM-1).
	Server = core.Server
	// ServerConfig configures a Server.
	ServerConfig = core.Config
	// Reading is a server's <C, E> answer.
	Reading = core.Reading
	// Reply is a remote reading with its measured round trip.
	Reply = core.Reply
	// SyncFunc is a pluggable synchronization function.
	SyncFunc = core.SyncFunc
	// SyncResult reports what a synchronization pass did.
	SyncResult = core.Result
	// MM is algorithm MM: minimization of the maximum error.
	MM = core.MM
	// IM is algorithm IM: intersection of the time intervals.
	IM = core.IM
	// LamportMax, Median, and Mean are the Section 1.2 baselines.
	LamportMax = core.LamportMax
	// Median is the median-clock baseline.
	Median = core.Median
	// Mean is the mean-clock baseline.
	Mean = core.Mean
	// TrimmedMean is the fault-tolerant averaging function of [Lamport 82].
	TrimmedMean = core.TrimmedMean
	// SelectIM is the intersection function hardened against falsetickers
	// (the [Marzullo 83] extension as a synchronization function): Select
	// over the server's own interval and the replies'.
	SelectIM = core.SelectIM
	// RateTracker estimates neighbor separation rates (Section 5).
	RateTracker = core.RateTracker
	// RateEstimate bounds a neighbor's rate of separation.
	RateEstimate = core.RateEstimate
)

// NewServer constructs a time server whose bookkeeping starts at real
// time t.
var NewServer = core.NewServer

// Clock models (internal/clock).
type (
	// Clock is a settable clock driven by external real time.
	Clock = clock.Clock
	// DriftingClock advances at a constant rate 1+drift.
	DriftingClock = clock.Drifting
	// MonotonicClock derives a monotonic view from a settable clock
	// (Section 1.1).
	MonotonicClock = clock.Monotonic
	// RandomWalkConfig configures a bounded random-walk oscillator.
	RandomWalkConfig = clock.RandomWalkConfig
	// SlewingClock absorbs corrections gradually at a bounded rate, the
	// way deployed time daemons discipline an OS clock.
	SlewingClock = clock.Slewing
	// SinusoidClock models a thermally-cycling oscillator whose rate
	// amplitude is a valid drift bound.
	SinusoidClock = clock.Sinusoid
)

// Clock constructors.
var (
	// NewDriftingClock returns a constant-drift clock.
	NewDriftingClock = clock.NewDrifting
	// NewRandomWalkClock returns a bounded random-walk clock.
	NewRandomWalkClock = clock.NewRandomWalk
	// NewMonotonicClock wraps a clock with the Section 1.1 monotonic
	// technique.
	NewMonotonicClock = clock.NewMonotonic
	// NewStoppedClock, NewRacingClock, and NewStuckClock arm the Section
	// 1.1 failure modes.
	NewStoppedClock = clock.NewStopped
	// NewRacingClock wraps a clock that races ahead after a failure time.
	NewRacingClock = clock.NewRacing
	// NewStuckClock wraps a clock that ignores resets after a failure
	// time.
	NewStuckClock = clock.NewStuck
	// NewSlewingClock wraps a clock so corrections are absorbed at a
	// bounded slew rate.
	NewSlewingClock = clock.NewSlewing
	// NewSinusoidClock returns a sinusoidal-rate oscillator.
	NewSinusoidClock = clock.NewSinusoid
)

// Simulated time service (internal/service, internal/simnet).
type (
	// Simulation is a complete simulated time service.
	Simulation = service.Service
	// SimulationConfig configures a Simulation.
	SimulationConfig = service.Config
	// ServerSpec describes one simulated server.
	ServerSpec = service.ServerSpec
	// SimSample is one metrics snapshot of a running simulation.
	SimSample = service.Sample
	// Topology selects the simulated link structure.
	Topology = service.Topology
	// DelayModel samples one-way message delays.
	DelayModel = simnet.DelayModel
	// UniformDelay draws uniformly from [Min, Max].
	UniformDelay = simnet.Uniform
	// ConstantDelay is a fixed delay.
	ConstantDelay = simnet.Constant
	// TruncExpDelay is a truncated-exponential delay.
	TruncExpDelay = simnet.TruncExp
	// LinkConfig describes one simulated link (for Custom topologies
	// wired directly through Simulation.Net).
	LinkConfig = simnet.LinkConfig
	// SimNode is one running server inside a Simulation.
	SimNode = service.Node
	// ConsonanceReport is the Section 5 diagnosis of a running
	// simulation: who observes whom separating faster than the claimed
	// bounds allow.
	ConsonanceReport = service.ConsonanceReport
)

// Topologies for SimulationConfig.
const (
	FullMesh = service.FullMesh
	Ring     = service.Ring
	Line     = service.Line
	Star     = service.Star
	Custom   = service.Custom
)

// NewSimulation builds a simulated time service at virtual time zero.
var NewSimulation = service.New

// Real UDP time service (internal/udptime).
type (
	// UDPServer answers time requests over UDP.
	UDPServer = udptime.Server
	// UDPClient queries UDP time servers.
	UDPClient = udptime.Client
	// Measurement is one completed UDP exchange.
	Measurement = udptime.Measurement
	// ClockSource yields <C, E> readings for servers and clients.
	ClockSource = udptime.ClockSource
	// SystemClock reads the OS clock with error bookkeeping.
	SystemClock = udptime.SystemClock
	// DisciplinedClock is a settable software clock steered by the
	// intersection algorithm.
	DisciplinedClock = udptime.DisciplinedClock
	// Syncer is the client daemon: it polls servers periodically and
	// disciplines a DisciplinedClock.
	Syncer = udptime.Syncer
	// SyncerConfig configures a Syncer.
	SyncerConfig = udptime.SyncerConfig
	// SyncReport describes one Syncer round.
	SyncReport = udptime.SyncReport
	// Peer is a full time-service member: it serves a disciplined clock
	// while a background syncer steers it.
	Peer = udptime.Peer
	// PeerConfig configures a Peer.
	PeerConfig = udptime.PeerConfig
	// SyncOptions carries the IM-2 transform parameters (the local drift
	// charge) a client applies to its measurements.
	SyncOptions = udptime.SyncOptions
	// UDPServerOption configures a UDPServer.
	UDPServerOption = udptime.ServerOption
	// UDPClientOption configures a UDPClient.
	UDPClientOption = udptime.ClientOption
	// MetricsRegistry is the process-wide metrics registry (counters,
	// gauges, histograms) shared by servers, clients, and syncers.
	MetricsRegistry = obs.Registry
)

// UDP service constructors and synchronizers.
var (
	// NewUDPServer starts a UDP time server.
	NewUDPServer = udptime.NewServer
	// NewUDPClient returns a UDP time client.
	NewUDPClient = udptime.NewClient
	// NewSystemClock returns an OS-clock source.
	NewSystemClock = udptime.NewSystemClock
	// NewDisciplinedClock returns an unsynchronized disciplined clock.
	NewDisciplinedClock = udptime.NewDisciplinedClock
	// SyncIM disciplines a clock with the intersection algorithm.
	SyncIM = udptime.SyncIM
	// SyncSelect disciplines a clock with falseticker rejection: Select
	// over the measurements' offset intervals.
	SyncSelect = udptime.SyncSelect
	// NewSyncer starts the background synchronization daemon.
	NewSyncer = udptime.NewSyncer
	// NewPeer starts a full peer (server plus syncer).
	NewPeer = udptime.NewPeer
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// WithHealthListener serves /healthz, Prometheus /metrics, and pprof
	// over HTTP alongside a UDP time server.
	WithHealthListener = udptime.WithHealthListener
	// WithServerObservability resolves a server's counters in a registry.
	WithServerObservability = udptime.WithServerObservability
	// WithClientObservability resolves a client's query counters and RTT
	// histogram in a registry.
	WithClientObservability = udptime.WithClientObservability
	// WithSyncOptions sets a client's IM-2 transform parameters.
	WithSyncOptions = udptime.WithSyncOptions
)

// Dynamic membership (internal/member), available on both substrates:
// SimulationConfig.Members enables it in the simulator, PeerConfig.Seeds
// on the real UDP path.
type (
	// MembershipConfig tunes a roster-backed Peer's gossip cadence,
	// drift-aware failure detection, and peer-selection fanout.
	MembershipConfig = udptime.MembershipConfig
	// MemberConfig enables dynamic membership in a Simulation.
	MemberConfig = service.MemberConfig
	// MemberEvent is one roster transition observed in a Simulation.
	MemberEvent = service.MemberEvent
	// MemberStatus is a roster entry's lifecycle status.
	MemberStatus = member.Status
	// UDPMember is one roster entry of a roster-backed Peer, keyed by
	// the member's serving address.
	UDPMember = member.Entry[string]
	// MemberDetectorConfig carries the drift-aware deadline parameters
	// (period, miss budget, delay bound xi, drift bounds delta).
	MemberDetectorConfig = member.DetectorConfig
)

// Roster statuses.
const (
	MemberAlive   = member.Alive
	MemberSuspect = member.Suspect
	MemberLeft    = member.Left
	MemberEvicted = member.Evicted
)

// Hybrid logical clocks and causal ordering (internal/hlc): timestamps
// whose physical component is drawn from a server's latest bound C + E,
// with a logical counter breaking ties so happens-before always implies
// a strictly larger timestamp. Both substrates piggyback them on their
// wire traffic; DisciplinedClock.WaitUntilAfter provides the matching
// TrueTime-style commit-wait on the real UDP path.
type (
	// HLCTimestamp is a hybrid logical clock timestamp: wall nanoseconds,
	// a logical tiebreak counter, and the issuing node.
	HLCTimestamp = hlc.Timestamp
	// HLCClock is one node's hybrid logical clock.
	HLCClock = hlc.Clock
)

// HLCTimestampSize is the encoded size of an HLCTimestamp in bytes.
const HLCTimestampSize = hlc.TimestampSize

// Hybrid logical clock constructors and codec.
var (
	// NewHLC returns a zeroed hybrid logical clock for a node.
	NewHLC = hlc.New
	// AppendHLCTimestamp appends the 16-byte encoding of a timestamp.
	AppendHLCTimestamp = hlc.AppendTimestamp
	// ParseHLCTimestamp decodes a timestamp encoded by
	// AppendHLCTimestamp.
	ParseHLCTimestamp = hlc.ParseTimestamp
)

// Commit-wait transaction workload (internal/txn) for Simulations:
// clients stamp transactions with HLC timestamps and commit after a
// commit-wait, and the workload checks external consistency online.
type (
	// TxnConfig configures a transaction workload.
	TxnConfig = txn.Config
	// TxnWorkload is an attached transaction workload.
	TxnWorkload = txn.Workload
	// Txn is one committed transaction.
	Txn = txn.Txn
	// TxnViolation is one observed external-consistency breach.
	TxnViolation = txn.Violation
	// CommitWaiter decides when a stamped transaction may commit.
	CommitWaiter = txn.Waiter
	// CommitWait is the correct policy: wait until C - E passes the
	// stamp.
	CommitWait = txn.CommitWait
	// BuggyCommitWait is the planted bug that skips the wait (the chaos
	// harness proves the external-consistency checker catches it).
	BuggyCommitWait = txn.BuggyCommitWait
)

// AttachTxns schedules a transaction workload on a Simulation.
var AttachTxns = txn.Attach

// Simulation tracing (internal/obs): attach a Tracer with
// Simulation.Observe and every synchronization round is emitted as one
// SyncSpan.
type (
	// Tracer serializes sync-round spans as JSONL, one span per line.
	Tracer = obs.Tracer
	// SyncSpan is the structured record of one synchronization round.
	SyncSpan = obs.SyncSpan
)

// NewTracer returns a tracer writing JSONL to w.
var NewTracer = obs.NewTracer

// TimeReading is an absolute-time reading <C, E> for IntersectReadings.
type TimeReading struct {
	// C is the clock value.
	C time.Time
	// E is the maximum error.
	E time.Duration
}

// IntersectReadings intersects absolute-time readings and returns the
// midpoint and maximum error of the common interval. ok is false when the
// readings are mutually inconsistent (or empty), in which case at least
// one reading is incorrect.
func IntersectReadings(readings []TimeReading) (c time.Time, e time.Duration, ok bool) {
	if len(readings) == 0 {
		return time.Time{}, 0, false
	}
	base := readings[0].C
	ivs := make([]Interval, len(readings))
	for i, r := range readings {
		center := r.C.Sub(base).Seconds()
		ivs[i] = FromEstimate(center, r.E.Seconds())
	}
	common, ok := IntersectAll(ivs)
	if !ok {
		return time.Time{}, 0, false
	}
	mid := time.Duration(common.Midpoint() * float64(time.Second))
	half := time.Duration(common.HalfWidth() * float64(time.Second))
	return base.Add(mid), half, true
}
