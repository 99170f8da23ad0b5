package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions.
type span struct {
	name       string // layer.call, e.g. "wire.decode"
	layer      string
	start, end time.Duration // since the tracer's base
	parent     int           // index into spans, -1 for a root
	req        int           // request ID: the replayed operation's index
}

// tracer keeps spans in memory. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	base  time.Time
	spans []span
	stack []int
	req   int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// setReq tags the spans that follow with a request ID.
func (t *tracer) setReq(id int) {
	if t != nil {
		t.req = id
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, layer: layer, start: time.Since(t.base), parent: parent, req: t.req})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span opened by begin; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.base)
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each layer's self time — its spans' durations minus
// the parts covered by their direct children — and the total duration of
// the root spans. Children of one span never overlap (the replay is
// single-threaded), so the self times sum exactly to the roots.
func selfTimes(spans []span) (map[string]time.Duration, time.Duration) {
	self := make(map[string]time.Duration)
	var roots time.Duration
	for _, s := range spans {
		d := s.end - s.start
		self[s.layer] += d
		if s.parent >= 0 {
			self[spans[s.parent].layer] -= d
		} else {
			roots += d
		}
	}
	return self, roots
}

// spanDists holds span durations (ns) by span name.
type spanDists map[string]*dist

// byName groups span durations by span name.
func byName(spans []span) spanDists {
	out := make(spanDists)
	for _, s := range spans {
		d := out[s.name]
		if d == nil {
			d = &dist{name: s.name}
			out[s.name] = d
		}
		d.add(float64(s.end - s.start))
	}
	return out
}

// sum is the total duration (ns) of the named spans.
func (s spanDists) sum(name string) float64 {
	total := 0.0
	if d := s[name]; d != nil {
		for _, v := range d.samples {
			total += v
		}
	}
	return total
}

// count is how many spans have the name.
func (s spanDists) count(name string) int {
	if d := s[name]; d != nil {
		return len(d.samples)
	}
	return 0
}

// writeSpans writes spans as tab-separated lines: req, name, parent,
// start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "req\tname\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.req, s.name, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
