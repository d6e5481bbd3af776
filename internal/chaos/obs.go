package chaos

import (
	"disttime/internal/obs"
)

// obsSink holds the chaos harness's resolved metric handles. All fields
// are nil when no registry is attached; the obs metric methods are
// nil-safe, so the engine and monitor bump them unconditionally. A sink
// never schedules simulator events or draws randomness, so an observed
// campaign executes exactly the trajectory of an unobserved one — the
// Verdict.Steps determinism fingerprint is identical either way.
type obsSink struct {
	campaigns       *obs.Counter
	failed          *obs.Counter
	invariantChecks *obs.Counter
	violations      *obs.Counter
	faultsInstalled *obs.Counter
	clockFaultsArm  *obs.Counter
	activations     map[FaultKind]*obs.Counter
}

// newObsSink resolves the chaos counters in reg; a nil reg yields a
// fully inert sink.
func newObsSink(reg *obs.Registry) *obsSink {
	s := &obsSink{}
	if reg == nil {
		return s
	}
	s.campaigns = reg.Counter("chaos_campaigns_total")
	s.failed = reg.Counter("chaos_campaigns_failed_total")
	s.invariantChecks = reg.Counter("chaos_invariant_checks_total")
	s.violations = reg.Counter("chaos_violations_total")
	s.faultsInstalled = reg.Counter("chaos_faults_installed_total")
	s.clockFaultsArm = reg.Counter("chaos_clock_faults_armed_total")
	s.activations = make(map[FaultKind]*obs.Counter, len(kinds))
	for k := FaultKind(1); int(k) < len(kinds); k++ {
		s.activations[k] = reg.Counter("chaos_fault_activations_" + k.String() + "_total")
	}
	return s
}

// activated records one fault's activation (its onset event firing).
func (s *obsSink) activated(kind FaultKind) {
	if s == nil || s.activations == nil {
		return
	}
	s.activations[kind].Inc()
}
