package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the packages under test records spans).
// Parent is the ID of the span that caused it; 0 marks a workload's
// root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: begin and end do nothing, which is how the
// end-to-end pass runs.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Workload: r.workload, Name: name,
		StartNs: time.Since(r.t0).Nanoseconds(),
	})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNs = time.Since(r.t0).Nanoseconds()
}

// add records a finished span from timestamps the caller already took,
// so tracing a short call costs no clock reads beyond the ones the
// end-to-end pass makes anyway.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Workload: r.workload, Name: name,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the time
// its direct children cover. The benchmark's children run one after
// another inside their parent, so covered time is the sum of their
// durations.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// selfSecondsByName sums self time over the spans of each name: where
// a traced pass spent its time, layer by layer.
func selfSecondsByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string]float64)
	for _, s := range spans {
		byName[s.Name] += float64(self[s.ID]) / 1e9
	}
	return byName
}

// meanSpanSeconds is the mean duration of the spans called name, and
// how many there were.
func meanSpanSeconds(spans []span, name string) (float64, int) {
	var sum int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += s.EndNs - s.StartNs
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n) / 1e9, n
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
