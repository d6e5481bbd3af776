package obs

import (
	"io"
	"strconv"
	"sync"
)

// SyncSpan is the structured record of one synchronization round: which
// server ran which rule at what virtual time, how many replies it
// consumed, which replies it rejected as inconsistent, whether it
// adopted a new clock value, and the clock/error bounds bracketing the
// pass. One span serializes to one JSONL line; under a seeded simulated
// run the whole span log is byte-identical across invocations.
//
// The event vocabulary follows the paper's rules: a span *is* the round
// (start through completion); Accepted counts adopt events (replies that
// triggered or fed a reset under MM-2/IM-2), Rejected lists reject
// events (reply indices found inconsistent, the rule's "any reply that
// is inconsistent with S_i is ignored"), Reset records whether the clock
// was actually set, Recovered whether the Section 3 heuristic ran, and
// the rate fields what the rate discipline left in force.
type SyncSpan struct {
	// T is the virtual time at which the round completed.
	T float64
	// Node is the synchronizing server's ID.
	Node int
	// Rule names the synchronization rule that fired: "MM-2", "IM-2", or
	// the function's own name for non-paper baselines.
	Rule string
	// Replies is how many replies the round handed to the rule.
	Replies int
	// Accepted counts replies that triggered or contributed to a reset.
	Accepted int
	// Rejected lists the indices of replies found inconsistent.
	Rejected []int
	// Reset reports whether the pass set the clock.
	Reset bool
	// Recovered reports whether Section 3 recovery adopted a third
	// server during the pass.
	Recovered bool
	// BeforeC/BeforeE and AfterC/AfterE are the server's clock value and
	// maximum error immediately before and after the pass: the paper's
	// <C, E> pair bracketing the round.
	BeforeC, BeforeE float64
	AfterC, AfterE   float64
	// Steered, Centre and Age are the rate discipline's state after the
	// pass: whether the clock is steered, the drift it steers out, and
	// the rate per local second at which the error ages (the claimed
	// bound unsteered). Fallback reports that the pass's step found a
	// drift bound outside the claimed one.
	Steered, Fallback bool
	Centre, Age       float64
}

// Tracer serializes spans to an io.Writer as JSONL, one span per line.
// Encoding is hand-rolled onto a reused buffer (no encoding/json
// reflection, no allocation in steady state) with floats in strconv's
// shortest round-trip form, so a deterministic run yields deterministic
// bytes. Emit is safe for concurrent use; the write of each line is
// atomic with respect to other Emits.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	spans uint64
	err   error
}

// NewTracer returns a tracer writing JSONL to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// Spans returns how many spans have been emitted.
func (t *Tracer) Spans() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Err returns the first write error encountered, if any. Emit keeps
// accepting spans after an error (and dropping them), so instrumented
// code does not need per-span error handling.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Emit serializes one span. A nil tracer discards the span, so call
// sites need no nil checks.
func (t *Tracer) Emit(s SyncSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf[:0]
	b = append(b, `{"span":"sync_round","t":`...)
	b = appendFloat(b, s.T)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(s.Node), 10)
	b = append(b, `,"rule":`...)
	b = strconv.AppendQuote(b, s.Rule)
	b = append(b, `,"replies":`...)
	b = strconv.AppendInt(b, int64(s.Replies), 10)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendInt(b, int64(s.Accepted), 10)
	b = append(b, `,"rejected":[`...)
	for i, idx := range s.Rejected {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(idx), 10)
	}
	b = append(b, `],"reset":`...)
	b = strconv.AppendBool(b, s.Reset)
	b = append(b, `,"recovered":`...)
	b = strconv.AppendBool(b, s.Recovered)
	b = append(b, `,"before":{"c":`...)
	b = appendFloat(b, s.BeforeC)
	b = append(b, `,"e":`...)
	b = appendFloat(b, s.BeforeE)
	b = append(b, `},"after":{"c":`...)
	b = appendFloat(b, s.AfterC)
	b = append(b, `,"e":`...)
	b = appendFloat(b, s.AfterE)
	b = append(b, `},"rate":{"steered":`...)
	b = strconv.AppendBool(b, s.Steered)
	b = append(b, `,"centre":`...)
	b = appendFloat(b, s.Centre)
	b = append(b, `,"age":`...)
	b = appendFloat(b, s.Age)
	b = append(b, `,"fallback":`...)
	b = strconv.AppendBool(b, s.Fallback)
	b = append(b, "}}\n"...)
	t.buf = b
	t.spans++
	if t.err == nil {
		if _, err := t.w.Write(b); err != nil {
			t.err = err
		}
	}
}
