// Package disttime is a distributed time service library reproducing
// Marzullo & Owicki, "Maintaining the Time in a Distributed System"
// (Stanford CSL TR 83-247, PODC 1983) — the paper whose intersection
// algorithm ("Marzullo's algorithm") later became the heart of NTP's
// clock selection.
//
// A time server answers a request with a pair <C, E>: its clock value and
// a bound on its maximum error, denoting the interval [C-E, C+E] that
// contains the correct time while the server's drift bound is valid. The
// library implements both of the paper's synchronization functions —
// algorithm MM (adopt the neighbor with the smallest transit-adjusted
// error) and algorithm IM (intersect all intervals and take the midpoint)
// — together with everything needed to run, test, and measure them:
//
//   - the interval algebra, consistency groups, the fault-tolerant
//     intersection (Marzullo's algorithm), its span at coverage m and the
//     majority selection built on it in internal/interval;
//   - drifting, failing and slewing clock models in internal/clock, the
//     slewing one being Section 1.1's monotonic clock;
//   - a deterministic discrete-event simulator and network in
//     internal/sim and internal/simnet;
//   - the server state machine, both algorithms, the Section 3 recovery
//     heuristic, the Section 5 consonance (rate interval) machinery, and
//     baseline synchronization functions in internal/core;
//   - a full simulated time service harness in internal/service;
//   - a real UDP time service (wire protocol, server, client, disciplined
//     clock, syncing peers) in internal/udptime;
//   - hybrid logical clocks and a commit-wait transaction workload in
//     internal/hlc and internal/txn;
//   - every figure and theorem of the paper as a runnable experiment in
//     internal/experiments (see EXPERIMENTS.md).
//
// This package re-exports the part of that API which the examples, the
// commands and this documentation use; DESIGN.md lists each name with its
// caller. Quick start:
//
//	best := disttime.Marzullo([]disttime.Interval{
//		disttime.FromEstimate(10.000, 0.005),
//		disttime.FromEstimate(10.003, 0.004),
//		disttime.FromEstimate(99.0, 0.001), // falseticker
//	})
//	// best.Interval contains the correct time; best.Count == 2.
//
// The executables under cmd/ expose the same functionality: timesim runs
// the paper's experiments, timeserver serves time over UDP, and timequery
// queries a set of servers and intersects their answers.
package disttime
