package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// layers are the repository modules the traced run splits time by, in
// report order. "bench" is the benchmark's own code between calls.
var layers = []string{"graph", "beep", "core", "stab", "ckpt", "service", "dist"}

// span is one timed call into a layer. Spans of one operation (a run, a
// recovery cycle, a job) share Trace; Parent links a call to the span
// that made it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced runs only pay the clock
// reads their own metrics need.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timing is an open span. Its clock always runs; it is recorded only
// when the tracer is on.
type timing struct {
	tr    *tracer
	id    int64
	start time.Time
}

// begin opens a span under parent (0 for a root) in operation trace.
func (t *tracer) begin(trace, parent int64, layer, name string) timing {
	now := time.Now()
	if t == nil {
		return timing{start: now}
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name,
		Start: int64(now.Sub(t.epoch))})
	t.mu.Unlock()
	return timing{tr: t, id: id, start: now}
}

// end closes the span and returns its duration.
func (s timing) end() time.Duration {
	now := time.Now()
	if s.tr != nil {
		s.tr.mu.Lock()
		s.tr.spans[s.id-1].End = int64(now.Sub(s.tr.epoch))
		s.tr.mu.Unlock()
	}
	return now.Sub(s.start)
}

// record adds a span whose interval was timed elsewhere, such as a
// round bounded by two callbacks.
func (t *tracer) record(trace, parent int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Trace: trace, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// selfTimes returns each layer's self time — its spans' durations minus
// the part of each interval covered by child spans — and the total
// duration of the root spans, the end-to-end time the shares refer to.
// Only operation spans count: set-up and the final checks run under
// negative trace ids and are reported by their own metrics.
func (t *tracer) selfTimes() (self map[string]time.Duration, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Trace < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if s.Parent == 0 {
			total += d
		}
		self[s.Layer] += d - covered(s, children[s.ID])
	}
	return self, total
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			sum += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return time.Duration(sum + hi - lo)
}

// dump writes the spans as NDJSON, one span per line.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
