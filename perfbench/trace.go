package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// spanRec is one traced interval: a call into a layer, timed from outside.
// Spans of one replayed request share Req; Parent is the enclosing span's
// ID, -1 for the request's root.
type spanRec struct {
	ID     int    `json:"id"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for a single-goroutine replay.
type tracer struct {
	t0    time.Time
	req   int
	spans []spanRec
	open  []int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Req: t.req, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.End - s.Start)
}

// mallocs returns the process's cumulative heap allocation count. Reading
// it stops the world, so it is recorded as a "trace.memstats" span: the
// time it costs is excluded from every layer's self time.
func (t *tracer) mallocs() uint64 {
	id := t.begin("trace.memstats")
	runtime.ReadMemStats(&t.ms)
	t.end(id)
	return t.ms.Mallocs
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, per span, its duration minus the part its children
// cover. Children of one span never overlap: the replay is sequential.
func selfTimes(spans []spanRec) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
