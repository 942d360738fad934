package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the program itself carries no spans yet). Parent is the index of
// the span that caused it, -1 for a root; spans of one statement share a
// Stmt id. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
}

// tracer keeps spans in memory until the run ends. It is single-goroutine:
// the traced run times one call at a time.
type tracer struct {
	t0    time.Time
	now   func() time.Duration
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.now = func() time.Duration { return time.Since(t.t0) }
	return t
}

// do times fn as a span named name under parent and returns the span's
// index and duration. A failed call still records its span: the time was
// spent.
func (t *tracer) do(name string, parent, stmt int, fn func() error) (int, time.Duration, error) {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Stmt: stmt})
	start := t.now()
	err := fn()
	end := t.now()
	t.spans[id].Start, t.spans[id].End = int64(start), int64(end)
	return id, end - start, err
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part their direct children account for. Children are linked by
// Parent, not by nesting in time: a statement's children may be replays of
// the calls it makes, run after it (see layers.go), so a child's duration
// is subtracted whole and a parent's self time is floored at zero.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// writeTrace dumps the spans as JSON.
func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
