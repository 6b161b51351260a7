package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the layer's public function. Spans of one job share
// its Job number; Parent is the enclosing span (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer times every layer call. With keep set it also records each
// call as a span in memory, and labels the CPU profile's samples with
// the innermost open span's name (goroutines started inside a span,
// such as the cluster's shard goroutines, inherit the label). The
// benchmark drives the layers from one goroutine, so a stack of open
// spans gives every span its parent.
type tracer struct {
	keep  bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(keep bool) *tracer { return &tracer{keep: keep, t0: time.Now()} }

// mark is an open span: its index in spans (-1 when not kept) and start.
type mark struct {
	id    int
	start time.Time
}

// begin opens a span around one layer call.
func (t *tracer) begin(name string, job int, arg string) mark {
	now := time.Now()
	if !t.keep {
		return mark{id: -1, start: now}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Arg: arg,
		Start: int64(now.Sub(t.t0))})
	t.open = append(t.open, id)
	t.label()
	return mark{id: id, start: now}
}

// end closes a span and returns its duration in seconds. Spans must be
// closed innermost first.
func (t *tracer) end(m mark) float64 {
	now := time.Now()
	if m.id >= 0 {
		n := len(t.open)
		if n == 0 || t.open[n-1] != m.id {
			panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[m.id].Name))
		}
		t.open = t.open[:n-1]
		t.spans[m.id].End = int64(now.Sub(t.t0))
		t.label()
	}
	return now.Sub(m.start).Seconds()
}

// label sets the profiler label of the calling goroutine to the
// innermost open span, or clears it.
func (t *tracer) label() {
	ctx := context.Background()
	if n := len(t.open); n > 0 {
		ctx = pprof.WithLabels(ctx, pprof.Labels("span", t.spans[t.open[n-1]].Name))
	}
	pprof.SetGoroutineLabels(ctx)
}

// selfSeconds returns each span's duration minus the part of it its
// child spans cover, in span order. Spans come from one goroutine, so
// the children of a span never overlap and their durations add up.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// checkNesting reports the first span that is not inside its parent
// or that was never closed.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}
