package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorderShards spreads the trace ring across independently locked
// shards so concurrent emitters (serving workers, async readbacks, the
// device goroutine) rarely contend on the same lock. Each shard's critical
// section is one slot write.
const recorderShards = 8

// DefaultRecorderCapacity is the trace ring size when NewRecorder is
// given a non-positive capacity: enough for several seconds of MobileNet
// inference at full kernel rate.
const DefaultRecorderCapacity = 16384

// Recorder is the lock-light ring-buffer trace recorder: an Observer that
// keeps the last N events and renders them as Chrome trace-event JSON
// loadable in chrome://tracing (or perfetto). Old events are overwritten,
// so memory is bounded regardless of how long tracing stays enabled.
type Recorder struct {
	shards [recorderShards]recorderShard
	cursor atomic.Uint64 // round-robins emissions across shards
}

type recorderShard struct {
	mu      sync.Mutex
	buf     []Event
	next    uint64 // total events written to this shard
	dropped int64  // events overwritten by this shard's ring wrapping
}

// NewRecorder returns a recorder keeping at most capacity events
// (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	per := (capacity + recorderShards - 1) / recorderShards
	if per < 1 {
		per = 1
	}
	r := &Recorder{}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, 0, per)
	}
	return r
}

// Observe implements Observer: append the event to one shard's ring.
func (r *Recorder) Observe(ev Event) {
	s := &r.shards[r.cursor.Add(1)%recorderShards]
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.next%uint64(cap(s.buf))] = ev
		s.dropped++
	}
	s.next++
	s.mu.Unlock()
}

// Dropped reports how many events were overwritten by ring wraparound,
// summed across shards. A nonzero count means a downloaded trace is
// truncated: the ring kept only the most recent events.
func (r *Recorder) Dropped() int64 {
	var n int64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.dropped
		s.mu.Unlock()
	}
	return n
}

// DroppedByShard reports each shard's overwrite count. Shards fill
// round-robin, so a skewed distribution points at a burst that wrapped
// one shard while others still had room.
func (r *Recorder) DroppedByShard() []int64 {
	out := make([]int64, recorderShards)
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out[i] = s.dropped
		s.mu.Unlock()
	}
	return out
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.buf)
		s.mu.Unlock()
	}
	return n
}

// Events returns the retained events starting at or after since (the zero
// time returns everything), in chronological order.
func (r *Recorder) Events(since time.Time) []Event {
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, ev := range s.buf {
			if since.IsZero() || !ev.Start.Before(since) {
				out = append(out, ev)
			}
		}
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Reset discards all retained events.
func (r *Recorder) Reset() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.buf = s.buf[:0]
		s.next = 0
		s.dropped = 0
		s.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON

// traceEvent is one entry of the Chrome trace-event format (JSON Array
// Format / "traceEvents" object form), the schema chrome://tracing and
// perfetto load.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`            // microseconds
	Dur   *int64         `json:"dur,omitempty"` // microseconds, X events
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`  // instant-event scope
	ID    string         `json:"id,omitempty"` // flow-event chain id
	BP    string         `json:"bp,omitempty"` // flow binding point ("e")
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object form of the trace file.
type chromeTrace struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// Trace-track tids: one logical thread per event family so the tracks
// stack cleanly in the viewer.
const (
	tidKernels   = 1
	tidTransfers = 2
	tidDevice    = 3
	tidSpans     = 4
	tidBatches   = 5
	// tidRequestBase starts the per-request track range: concurrent
	// request spans spread across requestTracks tids (keyed by flow ID) so
	// overlapping requests don't stack on one another in the viewer.
	tidRequestBase = 16
	requestTracks  = 16
)

// requestTID spreads request spans across the request track range.
func requestTID(flowID uint64) int {
	return tidRequestBase + int(flowID%requestTracks)
}

func micros(t time.Time) int64 { return t.UnixNano() / int64(time.Microsecond) }
func durMicros(ms float64) *int64 {
	d := int64(ms * 1000)
	if d < 0 {
		d = 0
	}
	return &d
}
func shapesString(shapes [][]int) string { return fmt.Sprint(shapes) }

// flowIDString renders a flow chain id; Chrome accepts string ids.
func flowIDString(id uint64) string { return fmt.Sprintf("flow-%d", id) }

// expandTraceEvents lowers one telemetry event onto the Chrome schema.
// Request-flow events expand to more than one trace event: a request span
// also opens a flow (ph "s") and its execute stage closes it (ph "f",
// bp "e") inside the batch slice, which is what draws the fan-in arrows
// from N request tracks into one batched execution in chrome://tracing.
func expandTraceEvents(ev Event) []traceEvent {
	te := toTraceEvent(ev)
	switch ev.Kind {
	case KindRequest:
		if ev.FlowID == 0 {
			return []traceEvent{te}
		}
		// The flow starts at the request span's start, on its track.
		return []traceEvent{te, {
			Name:  "request-flow",
			Cat:   "flow",
			Phase: "s",
			TS:    te.TS,
			PID:   te.PID,
			TID:   te.TID,
			ID:    flowIDString(ev.FlowID),
		}}
	case KindStage:
		if ev.Name != "execute" || ev.FlowID == 0 {
			return []traceEvent{te}
		}
		// The flow finishes inside the batch slice (bp "e" binds the event
		// to the slice enclosing its timestamp on the batch track).
		mid := te.TS
		if te.Dur != nil {
			mid += *te.Dur / 2
		}
		return []traceEvent{te, {
			Name:  "request-flow",
			Cat:   "flow",
			Phase: "f",
			TS:    mid,
			PID:   te.PID,
			TID:   tidBatches,
			ID:    flowIDString(ev.FlowID),
			BP:    "e",
		}}
	}
	return []traceEvent{te}
}

// toTraceEvent lowers one telemetry event onto the Chrome schema.
func toTraceEvent(ev Event) traceEvent {
	te := traceEvent{
		Name:  ev.Name,
		Cat:   ev.Kind.String(),
		Phase: "X",
		TS:    micros(ev.Start),
		PID:   1,
		Args:  map[string]any{},
	}
	if ev.Span != "" {
		te.Args["span"] = ev.Span
	}
	if ev.Backend != "" {
		te.Args["backend"] = ev.Backend
	}
	switch ev.Kind {
	case KindKernel:
		te.TID = tidKernels
		te.Dur = durMicros(ev.DurMS)
		te.Args["bytes_added"] = ev.Bytes
		te.Args["total_bytes"] = ev.TotalBytes
		if len(ev.InputShapes) > 0 {
			te.Args["input_shapes"] = shapesString(ev.InputShapes)
		}
		if len(ev.OutputShapes) > 0 {
			te.Args["output_shapes"] = shapesString(ev.OutputShapes)
		}
		if ev.HasKernelMS {
			te.Args["kernel_ms"] = ev.KernelMS
		}
	case KindUpload, KindDownload:
		te.TID = tidTransfers
		te.Dur = durMicros(ev.DurMS)
		te.Args["bytes"] = ev.Bytes
	case KindSpan:
		te.TID = tidSpans
		te.Dur = durMicros(ev.DurMS)
	case KindFence:
		te.TID = tidDevice
		te.Phase = "i"
		te.Scope = "t"
		if ev.DurMS > 0 {
			te.Args["wait_ms"] = ev.DurMS
		}
	case KindPageOut, KindPageIn:
		te.TID = tidDevice
		te.Dur = durMicros(ev.DurMS)
		te.Args["bytes"] = ev.Bytes
	case KindScope:
		// Scope closes become counter samples of the engine memory
		// timeline: chrome://tracing renders "C" events as stacked area
		// charts.
		te.TID = tidKernels
		te.Phase = "C"
		te.Name = "engine.memory"
		te.Args = map[string]any{
			"num_tensors": ev.NumTensors,
			"num_bytes":   ev.TotalBytes,
		}
	case KindRequest, KindStage:
		te.TID = requestTID(ev.FlowID)
		te.Dur = durMicros(ev.DurMS)
		if id := requestTrace(ev); id != "" {
			te.Args["trace"] = id
		}
	case KindBatch:
		te.TID = tidBatches
		te.Dur = durMicros(ev.DurMS)
		te.Args["batch_size"] = ev.Count
		te.Args["batch_id"] = ev.FlowID
	case KindRewrite:
		// Rewrites happen at compile time, before any kernel runs; an
		// instant event on the kernel track marks each one.
		te.TID = tidKernels
		te.Phase = "i"
		te.Scope = "t"
		if ev.Trace != "" {
			te.Args["node"] = ev.Trace
		}
		if ev.Count > 0 {
			te.Args["nodes_removed"] = ev.Count
		}
	case KindVerify:
		// One slice per load-time graph verification pass, on the kernel
		// track (it runs before any kernel of the model dispatches).
		te.TID = tidKernels
		te.Dur = durMicros(ev.DurMS)
		te.Args["nodes_checked"] = ev.Count
	}
	if len(te.Args) == 0 {
		te.Args = nil
	}
	return te
}

// requestTrace is a request-flow event's trace ID: its own, or, for a
// request that arrived with none (a direct submitter), req-<FlowID>, so
// every request and stage slice names the request it belongs to. The ID is
// rendered here, when a trace is read, not minted per request. An event
// with neither (its request was submitted while nothing observed) has none.
func requestTrace(ev Event) string {
	if ev.Trace != "" || ev.FlowID == 0 {
		return ev.Trace
	}
	return fmt.Sprintf("req-%d", ev.FlowID)
}

// WriteChromeTrace renders events at or after since (zero time = all) as
// Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer, since time.Time) error {
	return WriteChromeTrace(w, r.Events(since))
}

// WriteChromeTrace renders the given events as Chrome trace-event JSON
// (object form with a traceEvents array), loadable in chrome://tracing.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeTrace{
		TraceEvents:     make([]traceEvent, 0, len(events)),
		DisplayTimeUnit: "ms",
		Metadata:        map[string]any{"producer": "tfjs-go telemetry"},
	}
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, expandTraceEvents(ev)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

var _ Observer = (*Recorder)(nil)
