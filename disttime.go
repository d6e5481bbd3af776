package disttime

import (
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

// Every name below has a caller outside this package's tests: DESIGN.md's
// "Facade names" table lists it, and TestFacadeTableMatchesTree holds the
// table to this file.

// Interval algebra and fault-tolerant selection (internal/interval). An
// Interval is a closed range [Lo, Hi] of real time in seconds;
// FromEstimate builds [C-E, C+E] from a reading.
type (
	// Interval is a closed real-time interval in seconds.
	Interval = interval.Interval
	// Best is the result of Marzullo's fault-tolerant intersection.
	Best = interval.Best
	// Selection is the outcome of SyncSelect's majority selection: the
	// agreed region, the survivors and the falsetickers.
	Selection = interval.Selection
)

// Interval constructors and algorithms.
var (
	// FromEstimate returns [c-e, c+e].
	FromEstimate = interval.FromEstimate
	// IntersectAll intersects a set of intervals.
	IntersectAll = interval.IntersectAll
	// Marzullo finds the interval contained in the largest number of
	// source intervals (Marzullo's algorithm, as used by NTP).
	Marzullo = interval.Marzullo
)

// Time-server protocol engine (internal/core): the paper's rules MM-1,
// MM-2, and IM-2.
type (
	// Server is one time server's synchronization state (rule MM-1).
	Server = core.Server
	// SyncFunc is a pluggable synchronization function.
	SyncFunc = core.SyncFunc
	// MM is algorithm MM: minimization of the maximum error.
	MM = core.MM
	// IM is algorithm IM: intersection of the time intervals.
	IM = core.IM
	// RateTracker estimates neighbor separation rates (Section 5).
	RateTracker = core.RateTracker
)

// Clock is a settable clock driven by external real time
// (internal/clock): what ServerSpec.NewClock builds.
type Clock = clock.Clock

// Simulated time service (internal/service, internal/simnet).
type (
	// Simulation is a complete simulated time service.
	Simulation = service.Service
	// SimulationConfig configures a Simulation.
	SimulationConfig = service.Config
	// ServerSpec describes one simulated server.
	ServerSpec = service.ServerSpec
	// Topology selects the simulated link structure.
	Topology = service.Topology
	// UniformDelay is a link's one-way delay band [Min, Max], each
	// delay drawn uniformly from it.
	UniformDelay = core.Band
	// LinkConfig describes one simulated link (for Custom topologies
	// wired directly through Simulation.Net).
	LinkConfig = simnet.LinkConfig
	// SimNode is one running server inside a Simulation.
	SimNode = service.Node
)

// Custom is the Topology whose links the caller wires itself.
const Custom = service.Custom

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
	// SyncReport describes one synchronization round of a Peer.
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
	// SyncSelect disciplines a clock with falseticker rejection: majority
	// selection over the measurements' offset intervals.
	SyncSelect = udptime.SyncSelect
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
	// MemberStatus is a roster entry's lifecycle status.
	MemberStatus = member.Status
)

// MemberAlive is the status of a roster entry that is up.
const MemberAlive = member.Alive

// HLCTimestamp is a hybrid logical clock timestamp (internal/hlc): wall
// nanoseconds drawn from a server's latest bound C + E, a logical
// tiebreak counter, and the issuing node, so happens-before always
// implies a strictly larger timestamp.
type HLCTimestamp = hlc.Timestamp

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
