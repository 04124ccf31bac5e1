package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the ID of the span that caused
// this one (-1 for a root). A layer's self time is its span's duration
// minus the part its child spans cover.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// N is the number of records (or anomalies) the call covered, so a
	// reader can turn a duration into a per-record cost.
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. While off it records
// nothing, which is how the untraced phase runs the same code.
type tracer struct {
	workload string
	t0       time.Time
	on       atomic.Bool
	mu       sync.Mutex // the open-loop reader traces beside the sender
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id, noting how many records it covered.
func (t *tracer) end(id int32, n int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// durations returns the duration of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// perRecord returns Σ duration ÷ Σ N over the spans called name, in
// nanoseconds: the cost the layer adds to one record.
func (t *tracer) perRecord(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns, n int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			ns += s.End - s.Start
			n += int64(s.N)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// medianPerRecord is the median of duration ÷ N over the spans called
// name that covered at least one record, in nanoseconds. Live calls use
// it where perRecord would let one stalled call move the figure.
func (t *tracer) medianPerRecord(name string) (ns float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 && s.N > 0 {
			xs = append(xs, float64(s.End-s.Start)/float64(s.N))
		}
	}
	return median(xs), len(xs)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
