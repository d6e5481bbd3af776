package obs

import (
	"io"
	"strconv"
	"sync"

	"disttime/internal/core"
)

// ruleName translates a synchronization function's name into the paper's
// rule numbering; a non-paper baseline keeps its own name.
func ruleName(fn string) string {
	switch fn {
	case "MM":
		return "MM-2"
	case "IM":
		return "IM-2"
	default:
		return fn
	}
}

// Tracer writes one JSONL line per synchronization pass: a sync-round
// span, which is the core.Pass the rules returned, keyed in the paper's
// terms ("accepted" replies fed a reset under MM-2/IM-2, "rejected" ones
// were inconsistent and ignored, "before"/"after" are <C, E> either side).
// Encoding is hand-rolled onto a reused buffer (no encoding/json
// reflection, no allocation in steady state) with floats in strconv's
// shortest round-trip form, so a seeded run yields byte-identical spans.
// Emit is safe for concurrent use; the write of each line is atomic with
// respect to other Emits.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewTracer returns a tracer writing JSONL to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
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

// Emit serializes one pass as a span. A nil tracer discards it, so call
// sites need no nil checks.
func (t *Tracer) Emit(p core.Pass) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf[:0]
	b = append(b, `{"span":"sync_round","t":`...)
	b = appendFloat(b, p.T)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(p.Node), 10)
	b = append(b, `,"rule":`...)
	b = strconv.AppendQuote(b, ruleName(p.Fn))
	b = append(b, `,"replies":`...)
	b = strconv.AppendInt(b, int64(p.Replies), 10)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendInt(b, int64(p.Result.Accepted), 10)
	b = append(b, `,"rejected":[`...)
	for i, idx := range p.Result.Inconsistent {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(idx), 10)
	}
	b = append(b, `],"reset":`...)
	b = strconv.AppendBool(b, p.Result.Reset)
	b = append(b, `,"recovered":`...)
	b = strconv.AppendBool(b, p.Recovered)
	b = append(b, `,"before":{"c":`...)
	b = appendFloat(b, p.Before.C)
	b = append(b, `,"e":`...)
	b = appendFloat(b, p.Before.E)
	b = append(b, `},"after":{"c":`...)
	b = appendFloat(b, p.After.C)
	b = append(b, `,"e":`...)
	b = appendFloat(b, p.After.E)
	b = append(b, `},"rate":{"steered":`...)
	b = strconv.AppendBool(b, p.Rate.Steered)
	b = append(b, `,"centre":`...)
	b = appendFloat(b, p.Rate.Centre)
	b = append(b, `,"age":`...)
	b = appendFloat(b, p.Rate.Age)
	b = append(b, `,"fallback":`...)
	b = strconv.AppendBool(b, p.Fallback)
	b = append(b, "}}\n"...)
	t.buf = b
	if t.err == nil {
		if _, err := t.w.Write(b); err != nil {
			t.err = err
		}
	}
}
