package obs

import (
	"math"

	"disttime/internal/core"
)

// PassMetrics is the per-pass metrics sink: the one code that turns a
// core.Pass into metrics, on either substrate. Its handles are resolved
// once (NewPassMetrics), so Observe does no registry lookup and
// allocates nothing; the zero value is inert, as every handle is
// nil-safe.
type PassMetrics struct {
	rounds     *Counter      // <subsystem>_sync_rounds_total: every pass
	resets     *Counter      // <subsystem>_resets_total: clock sets (Pass.Sets)
	recoveries *Counter      // <subsystem>_recoveries_total
	replies    *Counter      // <subsystem>_replies_total
	rejected   *Counter      // <subsystem>_rejected_replies_total
	fallbacks  *Counter      // <subsystem>_rate_fallbacks_total
	errBefore  *LogHistogram // <subsystem>_error_before_seconds
	errAfter   *LogHistogram // <subsystem>_error_after_seconds
	adjust     *LogHistogram // <subsystem>_adjustment_seconds: |After.C − Before.C|
	aging      *LogHistogram // <subsystem>_aging_rate
}

// NewPassMetrics resolves the sink's handles in reg under subsystem's
// prefix; a nil reg gives the inert zero value.
func NewPassMetrics(reg *Registry, subsystem string) PassMetrics {
	if reg == nil {
		return PassMetrics{}
	}
	p := subsystem + "_"
	return PassMetrics{
		rounds:     reg.Counter(p + "sync_rounds_total"),
		resets:     reg.Counter(p + "resets_total"),
		recoveries: reg.Counter(p + "recoveries_total"),
		replies:    reg.Counter(p + "replies_total"),
		rejected:   reg.Counter(p + "rejected_replies_total"),
		fallbacks:  reg.Counter(p + "rate_fallbacks_total"),
		errBefore:  reg.LogHistogram(p + "error_before_seconds"),
		errAfter:   reg.LogHistogram(p + "error_after_seconds"),
		adjust:     reg.LogHistogram(p + "adjustment_seconds"),
		aging:      reg.LogHistogram(p + "aging_rate"),
	}
}

// Observe records one pass.
func (m *PassMetrics) Observe(p core.Pass) {
	m.rounds.Inc()
	m.replies.Add(uint64(p.Replies))
	m.rejected.Add(uint64(len(p.Result.Inconsistent)))
	m.resets.Add(uint64(p.Sets))
	if p.Recovered {
		m.recoveries.Inc()
	}
	if p.Fallback {
		m.fallbacks.Inc()
	}
	m.errBefore.Observe(p.Before.E)
	m.errAfter.Observe(p.After.E)
	m.adjust.Observe(math.Abs(p.After.C - p.Before.C))
	m.aging.Observe(p.Rate.Age)
}
