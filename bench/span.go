package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Times are
// offsets from the tracer's start.
type span struct {
	name       string
	start, end time.Duration
	// parent is the index of the span that caused this one, or -1.
	parent int
	// op identifies the operation (one replay cycle) the span belongs to.
	op int
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and for
// children's parent.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// do records fn as a span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover; overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		edge := s.start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfSample is one span's self time and the operation it belongs to.
type selfSample struct {
	op int
	ms float64
}

// selfSeries groups self times by span name, in recording order.
func (t *tracer) selfSeries() map[string][]selfSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	series := make(map[string][]selfSample)
	for i, d := range selfTimes(t.spans) {
		s := t.spans[i]
		if s.end < 0 {
			continue // never closed: the call failed
		}
		series[s.name] = append(series[s.name], selfSample{op: s.op, ms: float64(d) / float64(time.Millisecond)})
	}
	return series
}

// extent returns how many spans were recorded and the time from the first
// span's start to the last one's end, in ms.
func (t *tracer) extent() (spans int, ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return 0, 0
	}
	last := time.Duration(0)
	for _, s := range t.spans {
		last = max(last, s.end)
	}
	return len(t.spans), float64(last-t.spans[0].start) / float64(time.Millisecond)
}

// spanCost measures what recording one span costs, in ms, on a scratch
// tracer: tracing overhead is the spans recorded times this.
func spanCost() float64 {
	const n = 10000
	scratch := newTracer()
	t0 := time.Now()
	for i := range n {
		scratch.do("cost", -1, i, func() {})
	}
	return msSince(t0) / n
}

// writeChromeTrace writes the spans as a chrome://tracing / Perfetto
// loadable file: one complete ("X") event per span, one track per
// top-level span name, the operation id and parent in args.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	tracks := map[string]int{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		root := i
		for t.spans[root].parent >= 0 {
			root = t.spans[root].parent
		}
		tid, ok := tracks[t.spans[root].name]
		if !ok {
			tid = len(tracks) + 1
			tracks[t.spans[root].name] = tid
		}
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
