// Package telemetry is the unified observability layer of the library: one
// Observer surface behind which op-level tracing, per-kernel statistics and
// the engine memory timeline are implemented (Sections 3.7–3.8 of the
// paper, made a first-class subsystem the way the TensorFlow whitepaper
// treats tracing rather than a debug afterthought).
//
// Producers — the engine (kernel dispatch, tensor upload/download,
// tidy-scope close), the graph executor (model spans) and the simulated
// WebGL device layer (fences, texture paging) — emit flat Event values into
// a Hub. Consumers register Observers on the hub: the ring-buffer trace
// Recorder (Chrome trace-event JSON), the Stats aggregator (count /
// total / p50 / p95 per kernel, bytes moved, memory timeline), or any
// user-supplied hook via tf.WithTelemetry.
//
// The hub is engineered for zero cost when nothing observes: producers
// gate every emission on Hub.Active(), a single atomic load, so an
// unobserved process pays one predictable branch per kernel.
package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind discriminates the event types flowing through a Hub.
type EventKind uint8

// Event kinds. Kernel/Span carry durations; Upload/Download/Page carry
// bytes moved; Scope carries the engine memory gauges; Fence marks device
// sync points.
const (
	// KindKernel is one kernel dispatch on a backend.
	KindKernel EventKind = iota
	// KindUpload is host→device tensor data movement (Engine.MakeTensor).
	KindUpload
	// KindDownload is device→host data movement (DataSync / Data).
	KindDownload
	// KindScope is a tidy-scope close, sampling numTensors/numBytes.
	KindScope
	// KindSpan is a model-scoped execution section (graphmodel.Execute).
	KindSpan
	// KindFence is a device fence/readback-signal event (webgl sim).
	KindFence
	// KindPageOut is a texture paged from device to host memory.
	KindPageOut
	// KindPageIn is a texture paged back onto the device.
	KindPageIn
	// KindRequest is one serving request's end-to-end span, carrying the
	// request's trace ID and flow ID (request-flow tracing).
	KindRequest
	// KindStage is one per-request serving stage: queue_wait, gather,
	// execute or split. The execute stage carries the flow ID linking the
	// request into its batched execution.
	KindStage
	// KindBatch is one batched serving execution — the fan-in target the
	// coalesced requests' flow events point at. Count is the batch size.
	KindBatch
	// KindRewrite is one graph-optimizer rewrite (a fusion, a fold, a prune)
	// applied while compiling a model. Name is the pattern label
	// ("fuse:Conv2D+BiasAdd+Relu6"), Trace the rewritten node, Span the
	// model, Count the nodes removed.
	KindRewrite
	// KindVerify is one load-time static shape/dtype verification pass over
	// a model graph (graphmodel's verifier). Name is the outcome ("ok" or
	// "reject"), Count the number of nodes checked, Span the model.
	KindVerify
)

// String names the kind for trace output.
func (k EventKind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindUpload:
		return "upload"
	case KindDownload:
		return "download"
	case KindScope:
		return "scope"
	case KindSpan:
		return "span"
	case KindFence:
		return "fence"
	case KindPageOut:
		return "page_out"
	case KindPageIn:
		return "page_in"
	case KindRequest:
		return "request"
	case KindStage:
		return "stage"
	case KindBatch:
		return "batch"
	case KindRewrite:
		return "rewrite"
	case KindVerify:
		return "verify"
	}
	return "unknown"
}

// Event is the single flat record all producers emit. Fields are populated
// per kind; unused fields are zero. A flat struct (no per-kind interfaces)
// keeps emission allocation-free on the hot path.
type Event struct {
	Kind EventKind
	// Name is the kernel name, scope name, span name, or device event
	// label.
	Name string
	// Span is the model span the event belongs to. The producer sets it:
	// an engine stamps the span open on it (core.Engine.BeginSpan), the
	// serving scheduler its model, device-level emitters that belong to no
	// engine the hub's CurrentSpan. The hub never fills it in.
	Span string
	// Backend names the backend involved, when known.
	Backend string
	// Start is the event start time.
	Start time.Time
	// DurMS is the wall duration in milliseconds (Kernel, Span, Upload,
	// Download, Fence).
	DurMS float64
	// KernelMS is device-measured kernel time when the backend can
	// measure it (webgl's modeled GPU time).
	KernelMS float64
	// HasKernelMS reports whether KernelMS is meaningful.
	HasKernelMS bool
	// Bytes is the payload size: bytes added by a kernel, moved by a
	// transfer, or paged.
	Bytes int64
	// TotalBytes is the engine's numBytes after the event (Kernel, Scope).
	TotalBytes int64
	// NumTensors is the engine's live-tensor count (Scope).
	NumTensors int
	// InputShapes / OutputShapes describe kernel operands (Kernel only).
	InputShapes  [][]int
	OutputShapes [][]int
	// Trace is the request/trace ID of serving request-flow events
	// (Request, Stage). It is minted by the HTTP layer (honoring an
	// inbound X-Request-ID) or by the scheduler for direct submitters.
	Trace string
	// FlowID links a request span to the batched execution that served it:
	// the Request event and its execute Stage event share a FlowID, which
	// the trace renderer turns into a Chrome flow (ph "s"/"f") so N
	// coalesced requests visibly fan into one batch slice. On Batch events
	// it is the batch's own sequence number.
	FlowID uint64
	// Count is a generic cardinality: the batch size on Batch events.
	Count int
	// Elements is the total output element count of a kernel dispatch
	// (Kernel only) — the denominator of the continuous profiler's
	// measured ns/element accounts.
	Elements int64
}

// Observer receives telemetry events. Implementations must be safe for
// concurrent calls and must not block: they run inline on the emitting
// goroutine (the kernel dispatch path).
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// Hub fans events out to registered observers. Registration is
// copy-on-write so emission reads the observer list with one atomic load
// and never takes a lock.
type Hub struct {
	mu        sync.Mutex // guards writes to observers
	observers atomic.Pointer[[]*registration]
	// open holds the spans that are open, in opening order (spanMu), and
	// span its last entry for lock-free reads. Engines do not read it —
	// each stamps its own events with the span open on it — so it serves
	// only emitters that belong to no engine (the simulated WebGL device's
	// fences and paging). With one execution at a time it is exact; with
	// replicas executing concurrently it is an approximation, for those
	// events only.
	spanMu sync.Mutex
	open   []*Span
	span   atomic.Pointer[Span]
	clock  func() time.Time // test seam; nil means time.Now
}

// registration gives each registered observer a unique identity so removal
// works for uncomparable observer types (funcs).
type registration struct{ obs Observer }

// Span is one model span (BeginSpan), open until its End.
type Span struct {
	hub   *Hub
	name  string
	start time.Time
	ended atomic.Bool
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

var defaultHub = NewHub()

// Default returns the process-wide hub, the one the global engine and the
// backends emit into.
func Default() *Hub { return defaultHub }

// Active reports whether any observer is registered — the producer-side
// gate, a single atomic load.
func (h *Hub) Active() bool {
	obs := h.observers.Load()
	return obs != nil && len(*obs) > 0
}

// Register adds an observer and returns its removal function. Safe for
// concurrent use.
func (h *Hub) Register(o Observer) (remove func()) {
	reg := &registration{obs: o}
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.observers.Load()
	var next []*registration
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, reg)
	h.observers.Store(&next)
	var once sync.Once
	return func() {
		once.Do(func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			cur := h.observers.Load()
			if cur == nil {
				return
			}
			pruned := make([]*registration, 0, len(*cur))
			for _, x := range *cur {
				if x != reg {
					pruned = append(pruned, x)
				}
			}
			h.observers.Store(&pruned)
		})
	}
}

// now returns the hub's notion of time.
func (h *Hub) now() time.Time {
	if h.clock != nil {
		return h.clock()
	}
	return time.Now()
}

// Emit delivers the event to every registered observer, stamping the start
// time when unset. A hub with no observers drops the event after one atomic
// load.
func (h *Hub) Emit(ev Event) {
	obs := h.observers.Load()
	if obs == nil || len(*obs) == 0 {
		return
	}
	if ev.Start.IsZero() {
		ev.Start = h.now()
	}
	for _, r := range *obs {
		r.obs.Observe(ev)
	}
}

// BeginSpan opens a model-scoped span; its End emits a KindSpan event
// covering the section. Callers executing on an engine use
// core.Engine.BeginSpan, which also makes the span the Span of that
// engine's events; the hub itself only remembers which span was opened
// last (CurrentSpan). Spans nest — ending the innermost re-exposes its
// parent — and may be opened and ended concurrently from different
// engines.
func (h *Hub) BeginSpan(name string) *Span {
	s := &Span{hub: h, name: name, start: h.now()}
	h.spanMu.Lock()
	h.open = append(h.open, s)
	h.span.Store(s)
	h.spanMu.Unlock()
	return s
}

// Name returns the span's label.
func (s *Span) Name() string { return s.name }

// End closes the span and emits its KindSpan event. Idempotent.
func (s *Span) End() {
	if !s.ended.CompareAndSwap(false, true) {
		return
	}
	h := s.hub
	h.spanMu.Lock()
	// Usually the last entry; an earlier one when a span from another
	// engine was opened after this one and is still open.
	for i := len(h.open) - 1; i >= 0; i-- {
		if h.open[i] == s {
			h.open = slices.Delete(h.open, i, i+1)
			break
		}
	}
	var last *Span
	if n := len(h.open); n > 0 {
		last = h.open[n-1]
	}
	h.span.Store(last)
	h.spanMu.Unlock()
	h.Emit(Event{
		Kind:  KindSpan,
		Name:  s.name,
		Span:  s.name,
		Start: s.start,
		DurMS: float64(h.now().Sub(s.start)) / float64(time.Millisecond),
	})
}

// CurrentSpan returns the most recently opened span that is still open,
// or "".
func (h *Hub) CurrentSpan() string {
	if f := h.span.Load(); f != nil {
		return f.name
	}
	return ""
}
