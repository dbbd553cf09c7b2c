// Package core implements the eager execution engine of the library — the
// analogue of the TensorFlow.js Engine described in Sections 3.3–3.8 of the
// paper.
//
// The engine owns:
//
//   - the backend registry and the active backend (Section 3.4);
//   - the tensor/data-container registry with reference counting, which is
//     what makes reshape and clone free (Section 3.4);
//   - kernel dispatch: device-specific kernel overrides with a reference-
//     kernel fallback (Section 3.3);
//   - tidy scopes for deterministic memory management (Section 3.7);
//   - the eager gradient tape for automatic differentiation (Section 3.5);
//   - profiling, timing and the NaN-checking debug mode (Section 3.8).
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsenv"
	"repro/internal/kernels"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// OpError is the panic value raised for user-level operation errors (shape
// mismatches, unknown kernels, invalid attributes). Like gonum/mat, the
// library treats these as programmer errors and panics with a typed value
// so callers who need to can recover selectively.
type OpError struct {
	Kernel string
	Err    error
}

// Error implements the error interface.
func (e *OpError) Error() string { return fmt.Sprintf("op %s: %v", e.Kernel, e.Err) }

// Unwrap exposes the underlying error.
func (e *OpError) Unwrap() error { return e.Err }

func opPanic(kernel string, err error) {
	panic(&OpError{Kernel: kernel, Err: err})
}

// dataEntry tracks one backend data container.
type dataEntry struct {
	backend  kernels.Backend
	refCount int
	bytes    int64
	dtype    tensor.DataType
}

// Engine is the eager execution engine. A process normally uses the single
// Global engine, matching the global engine of TensorFlow.js.
type Engine struct {
	mu sync.Mutex

	backendFactories map[string]func() (kernels.Backend, error)
	backendOrder     []string
	backends         map[string]kernels.Backend
	active           kernels.Backend

	data       map[tensor.DataID]*dataEntry
	numTensors int
	numBytes   int64
	peakBytes  int64

	scopes []*scope

	tapes      []*tape
	gradDepth  int
	tapePaused bool

	// hub is the telemetry fan-out the engine emits into: kernel
	// dispatches, tensor uploads/downloads and tidy-scope closes (§3.8).
	// Profiling, debug records and kernel listeners are all observers on
	// this hub; the engine itself keeps no profiling state beyond the
	// debug-mode NaN check.
	hub *telemetry.Hub

	// span is the model span open on this engine (BeginSpan), nil when
	// none: the Span of every event the engine emits. Atomic because a
	// readback on another goroutine may emit while an execution opens or
	// closes its span.
	span atomic.Pointer[telemetry.Span]

	// debugOn gates the NaN-checking debug mode inside the instrumented
	// path. The dispatch-time gate itself is hub.Active() alone: enabling
	// debug mode registers a no-op observer on the hub (debugRemove), so
	// the unobserved hot path pays exactly one atomic load per kernel.
	debugOn      atomic.Bool
	debugRemove  func()
	debugKernels []KernelRecord

	// lifetime is the optional tensor-lifetime tracker (TrackLifetimes):
	// while installed, every tensor-handle registration, disposal and
	// finalizer reclaim is reported to it with scope/span attribution and
	// sampled allocation-site stacks. One atomic pointer load when absent.
	lifetime atomic.Pointer[telemetry.LifetimeTracker]

	autoFinalize bool

	// execMu serializes whole-model execution sections (RunExclusive).
	// The tidy scope stack above is per-engine, not per-goroutine: two
	// goroutines interleaving StartScope/EndScope on one engine would
	// adopt each other's intermediates and dispose tensors out from under
	// the other. Concurrency across engines is safe — that is what
	// replica pools exploit.
	execMu sync.Mutex

	// isGlobalEngine marks the process-global engine. Set once inside
	// Global()'s sync.Once before the engine is published, so it needs no
	// synchronization. Non-global engines stamp themselves as the owner
	// of the tensors they register (tensor.SetOwner) so reads and disposal
	// reach their registry; the global engine is the default handler and
	// skips that.
	isGlobalEngine bool
}

// scope is one tidy frame (Section 3.7).
type scope struct {
	name  string
	track []*tensor.Tensor
	keep  map[int64]bool
}

// NewEngine returns an engine with no backends registered. Most callers
// should use Global instead.
func NewEngine() *Engine {
	return &Engine{
		backendFactories: map[string]func() (kernels.Backend, error){},
		backends:         map[string]kernels.Backend{},
		data:             map[tensor.DataID]*dataEntry{},
		hub:              telemetry.Default(),
	}
}

// Telemetry returns the hub the engine emits observability events into.
// Register a telemetry.Observer on it (or use tf.WithTelemetry) to receive
// kernel dispatches, transfers, scope closes and model spans.
func (e *Engine) Telemetry() *telemetry.Hub { return e.hub }

var (
	globalOnce sync.Once
	global     *Engine
)

// Global returns the process-wide engine and installs it as the tensor
// handler on first use.
func Global() *Engine {
	globalOnce.Do(func() {
		global = NewEngine()
		global.isGlobalEngine = true
		tensor.SetHandler(global)
	})
	return global
}

// ---------------------------------------------------------------------------
// Engines are passed, not looked up
//
// There is no ambient "current engine": the ops package and the layers
// runtime built on it execute on Global(), and everything that runs on a
// replica engine — graphmodel's plan executor, the serving runner's batch
// gather and split — holds its *Engine and calls its methods. The same
// goes for telemetry: the model span open on an engine is a field of that
// engine (BeginSpan), and every event the engine emits is stamped from it.

// BeginSpan opens a model-scoped span on this engine: until the returned
// end function runs, every event the engine emits (kernels, uploads,
// downloads, scope closes) carries name in its Span, whichever goroutine
// triggers it and whatever other engines are executing. Model executions
// hold the engine's execution lock, so an engine has one span at a time;
// a span opened while another is open (an eager section profiling a
// nested model) shadows it until it ends. The hub is told too: it emits
// the KindSpan event and keeps the most recently opened span as the
// attribution fallback for emitters that belong to no engine.
func (e *Engine) BeginSpan(name string) (end func()) {
	s := e.hub.BeginSpan(name)
	prev := e.span.Swap(s)
	return func() {
		// A second call finds another span (or prev) open and leaves it.
		e.span.CompareAndSwap(s, prev)
		s.End()
	}
}

// Span returns the label of the span open on this engine, or "".
func (e *Engine) Span() string {
	if s := e.span.Load(); s != nil {
		return s.Name()
	}
	return ""
}

// SpawnReplica returns a fresh engine sharing this engine's backend
// registry (factories and priority order) and telemetry hub, but with its
// own backend instances, data-container registry, tidy-scope stack and
// execution lock. Replicas are how the serving tier turns one registered
// model into N independently executing copies: each replica's backend is
// a separate instance, so two replicas never contend on kernel state or
// data maps. The active backend choice carries over.
func (e *Engine) SpawnReplica() *Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := NewEngine()
	for name, factory := range e.backendFactories {
		r.backendFactories[name] = factory
	}
	r.backendOrder = append([]string(nil), e.backendOrder...)
	r.hub = e.hub
	r.autoFinalize = e.autoFinalize
	if e.active != nil {
		if b, err := r.backendLocked(e.active.Name()); err == nil {
			r.active = b
		}
	}
	return r
}

// RegisterBackend makes a backend available under name. The factory runs
// lazily on first SetBackend/use, mirroring tf.registerBackend. Priority of
// automatic selection follows registration order.
func (e *Engine) RegisterBackend(name string, factory func() (kernels.Backend, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.backendFactories[name]; dup {
		return
	}
	e.backendFactories[name] = factory
	e.backendOrder = append(e.backendOrder, name)
}

// SetBackend activates the named backend, initializing it if needed.
// Tensors created on other backends migrate lazily when next used.
func (e *Engine) SetBackend(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, err := e.backendLocked(name)
	if err != nil {
		return err
	}
	e.active = b
	return nil
}

func (e *Engine) backendLocked(name string) (kernels.Backend, error) {
	if b, ok := e.backends[name]; ok {
		return b, nil
	}
	factory, ok := e.backendFactories[name]
	if !ok {
		return nil, fmt.Errorf("core: backend %q is not registered (registered: %v)", name, e.backendOrder)
	}
	b, err := factory()
	if err != nil {
		return nil, fmt.Errorf("core: initializing backend %q: %w", name, err)
	}
	e.backends[name] = b
	return b, nil
}

// Backend returns the active backend, auto-selecting the first registered
// backend when none has been chosen — the automatic fallback behaviour
// described in Section 3.1 (WebGL when available, otherwise CPU).
func (e *Engine) Backend() kernels.Backend {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.activeLocked()
}

func (e *Engine) activeLocked() kernels.Backend {
	if e.active != nil {
		return e.active
	}
	for _, name := range e.backendOrder {
		b, err := e.backendLocked(name)
		if err != nil {
			continue
		}
		e.active = b
		return b
	}
	panic("core: no backend available; register one (import a backend package)")
}

// BackendName returns the name of the active backend.
func (e *Engine) BackendName() string { return e.Backend().Name() }

// RegisteredBackends lists backend names in registration (priority) order.
func (e *Engine) RegisteredBackends() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.backendOrder))
	copy(out, e.backendOrder)
	return out
}

// ---------------------------------------------------------------------------
// Tensor creation and tracking

// MakeTensor uploads values to the active backend and returns a tracked
// tensor. values must have exactly ShapeSize(shape) elements.
func (e *Engine) MakeTensor(values []float32, shape []int, dtype tensor.DataType) *tensor.Tensor {
	if len(values) != tensor.ShapeSize(shape) {
		opPanic("MakeTensor", fmt.Errorf("got %d values for shape %v (want %d)",
			len(values), shape, tensor.ShapeSize(shape)))
	}
	b := e.Backend()
	id := tensor.NewDataID()
	if e.hub.Active() {
		start := time.Now()
		b.Write(id, values, shape, dtype)
		e.hub.Emit(telemetry.Event{
			Kind:    telemetry.KindUpload,
			Name:    "upload",
			Span:    e.Span(),
			Backend: b.Name(),
			Start:   start,
			DurMS:   float64(time.Since(start)) / float64(time.Millisecond),
			Bytes:   int64(len(values)) * 4,
		})
	} else {
		b.Write(id, values, shape, dtype)
	}
	t := tensor.New(id, shape, dtype)
	e.registerTensor(t, b)
	return t
}

// registerTensor adds a tensor handle to the registry, creating or
// incrementing its data container's reference count, and tracks it in the
// current tidy scope.
func (e *Engine) registerTensor(t *tensor.Tensor, b kernels.Backend) {
	if !e.isGlobalEngine {
		// Reads and disposal of this handle must reach this engine's data
		// registry no matter which goroutine performs them later.
		t.SetOwner(e)
	}
	e.mu.Lock()
	entry, ok := e.data[t.DataID]
	if !ok {
		entry = &dataEntry{backend: b, bytes: int64(t.Bytes()), dtype: t.DType}
		e.data[t.DataID] = entry
		e.numBytes += entry.bytes
		if e.numBytes > e.peakBytes {
			e.peakBytes = e.numBytes
		}
	}
	entry.refCount++
	e.numTensors++
	var scopeName string
	if n := len(e.scopes); n > 0 {
		s := e.scopes[n-1]
		s.track = append(s.track, t)
		scopeName = s.name
	}
	finalize := e.autoFinalize
	e.mu.Unlock()
	if lt := e.lifetime.Load(); lt != nil {
		lt.OnAlloc(t.ID, int64(t.Bytes()), scopeName, e.Span())
	}
	if finalize {
		// Finalizer-based cleanup, the Node.js behaviour of Section 4.2:
		// "Node.js and Google's V8 JS engine exposes finalization APIs,
		// [which] eliminates the need for manual memory management."
		// Dispose is idempotent, so explicit disposal still composes. A
		// finalizer that actually fires means the user never disposed the
		// tensor — the lifetime tracker records it as a reclaimed leak.
		runtime.SetFinalizer(t, func(t *tensor.Tensor) {
			if lt := e.lifetime.Load(); lt != nil {
				lt.OnFinalize(t.ID)
			}
			t.Dispose()
		})
	}
}

// SetAutoFinalize toggles garbage-collector-driven tensor cleanup: every
// tensor created while enabled carries a finalizer that disposes it when
// unreachable. This reproduces the Node.js backend's memory model (§4.2);
// the browser backends cannot do this, which is why tidy exists (§3.7).
func (e *Engine) SetAutoFinalize(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.autoFinalize = on
}

// Dispose implements tensor.Handler: it decrements the tensor's data
// container reference count and frees the container at zero (Section 3.4).
func (e *Engine) Dispose(t *tensor.Tensor) {
	if lt := e.lifetime.Load(); lt != nil {
		lt.OnDispose(t.ID)
	}
	e.mu.Lock()
	entry, ok := e.data[t.DataID]
	if !ok {
		e.mu.Unlock()
		return
	}
	e.numTensors--
	entry.refCount--
	var freeBackend kernels.Backend
	if entry.refCount <= 0 {
		delete(e.data, t.DataID)
		e.numBytes -= entry.bytes
		freeBackend = entry.backend
	}
	e.mu.Unlock()
	if freeBackend != nil {
		freeBackend.DisposeData(t.DataID)
	}
}

// ReadSync implements tensor.Handler (tensor.dataSync()).
func (e *Engine) ReadSync(t *tensor.Tensor) []float32 {
	e.mu.Lock()
	entry, ok := e.data[t.DataID]
	e.mu.Unlock()
	if !ok {
		opPanic("DataSync", fmt.Errorf("tensor %d has no data (already disposed?)", t.ID))
	}
	if e.hub.Active() {
		start := time.Now()
		vals := retainable(entry.backend, entry.backend.ReadSync(t.DataID))
		e.hub.Emit(telemetry.Event{
			Kind:    telemetry.KindDownload,
			Name:    "dataSync",
			Span:    e.Span(),
			Backend: entry.backend.Name(),
			Start:   start,
			DurMS:   float64(time.Since(start)) / float64(time.Millisecond),
			Bytes:   entry.bytes,
		})
		return vals
	}
	return retainable(entry.backend, entry.backend.ReadSync(t.DataID))
}

// retainable makes a backend read safe for the caller to hold past the
// tensor's lifetime. Host backends return their backing buffer without
// copying; when such a backend recycles buffers on dispose, a retained
// slice would be scribbled over on reuse, so the engine copies at the
// read boundary instead (kernel-internal reads stay zero-copy — inputs
// are alive for the duration of a kernel).
func retainable(b kernels.Backend, vals []float32) []float32 {
	if r, ok := b.(kernels.Recycler); ok && r.PoolActive() {
		cp := make([]float32, len(vals))
		copy(cp, vals)
		return cp
	}
	return vals
}

// Read implements tensor.Handler (tensor.data()).
func (e *Engine) Read(t *tensor.Tensor) *jsenv.Future[[]float32] {
	e.mu.Lock()
	entry, ok := e.data[t.DataID]
	e.mu.Unlock()
	if !ok {
		f := jsenv.NewFuture[[]float32]()
		f.Resolve(nil, fmt.Errorf("core: tensor %d has no data (already disposed?)", t.ID))
		return f
	}
	if e.hub.Active() {
		// The async download's duration belongs to the device (fence
		// latency); the engine records the request itself.
		e.hub.Emit(telemetry.Event{
			Kind:    telemetry.KindDownload,
			Name:    "data",
			Span:    e.Span(),
			Backend: entry.backend.Name(),
			Bytes:   entry.bytes,
		})
	}
	return entry.backend.Read(t.DataID)
}

// Keep implements tensor.Handler (tf.keep): the tensor survives the
// enclosing tidy scope.
func (e *Engine) Keep(t *tensor.Tensor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.scopes); n > 0 {
		s := e.scopes[n-1]
		if s.keep == nil {
			s.keep = map[int64]bool{}
		}
		s.keep[t.ID] = true
	}
}

// Clone implements tensor.Handler: a free shallow copy sharing the data
// container.
func (e *Engine) Clone(t *tensor.Tensor) *tensor.Tensor {
	e.mu.Lock()
	entry, ok := e.data[t.DataID]
	e.mu.Unlock()
	if !ok {
		opPanic("Clone", fmt.Errorf("tensor %d has no data (already disposed?)", t.ID))
	}
	out := tensor.New(t.DataID, t.Shape, t.DType)
	e.registerTensor(out, entry.backend)
	// A clone is differentiable: record it like an identity kernel.
	e.recordOnTape("Identity", []*tensor.Tensor{t}, out, nil)
	return out
}

// AdoptData wraps a data container the backend already holds (registered
// via WriteOwned or a kernel) into a tracked tensor handle. Shape is
// retained, not copied. Used by the graphmodel plan executor to hand kernel
// outputs back to the engine without a host round-trip.
func (e *Engine) AdoptData(b kernels.Backend, id tensor.DataID, shape []int, dtype tensor.DataType) *tensor.Tensor {
	t := tensor.New(id, shape, dtype)
	e.registerTensor(t, b)
	return t
}

// DataBackend returns the backend holding the container, or nil when the
// container is unknown to this engine.
func (e *Engine) DataBackend(id tensor.DataID) kernels.Backend {
	e.mu.Lock()
	defer e.mu.Unlock()
	if entry, ok := e.data[id]; ok {
		return entry.backend
	}
	return nil
}

// NumTensors returns the count of live (undisposed) tensor handles.
func (e *Engine) NumTensors() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.numTensors
}

// MemoryInfo is the engine-level allocation snapshot (tf.memory()).
type MemoryInfo struct {
	NumTensors     int
	NumDataBuffers int
	NumBytes       int64
	PeakBytes      int64
	Backend        kernels.MemoryInfo
}

// Memory reports engine and active-backend allocation state.
func (e *Engine) Memory() MemoryInfo {
	b := e.Backend()
	e.mu.Lock()
	info := MemoryInfo{
		NumTensors:     e.numTensors,
		NumDataBuffers: len(e.data),
		NumBytes:       e.numBytes,
		PeakBytes:      e.peakBytes,
	}
	e.mu.Unlock()
	info.Backend = b.Memory()
	return info
}

// ---------------------------------------------------------------------------
// Kernel dispatch

// RunKernel executes the named kernel on the active backend and returns its
// output as a tracked tensor. Inputs living on another backend are migrated
// first. Kernel errors panic with *OpError. Which kernel runs — the
// backend's own, or the reference kernel through host memory — is
// kernels.Dispatch's decision; the engine adds the tensor handle, the
// telemetry and the tape around it.
func (e *Engine) RunKernel(name string, inputs []*tensor.Tensor, attrs kernels.Attrs) *tensor.Tensor {
	if attrs == nil {
		attrs = kernels.Attrs{}
	}
	b := e.Backend()

	// Free ops: reshape-family kernels only re-view the data container.
	if out, ok := e.tryFreeKernel(name, inputs, attrs); ok {
		return out
	}

	for _, in := range inputs {
		e.EnsureOnBackend(in, b)
	}

	// Exactly one atomic load: debug mode registers a (no-op) hub observer
	// when enabled, so hub.Active() alone gates both instrumentation and
	// the NaN check, and the unobserved dispatch path pays one predictable
	// branch per kernel.
	var info kernels.TensorInfo
	ins := kernelInputs(inputs)
	if e.hub.Active() {
		e.instrumentedRun(name, b, ins, attrs, &info)
	} else if err := kernels.Dispatch(b, name, ins, attrs, &info); err != nil {
		opPanic(name, err)
	}
	out := tensor.New(info.DataID, info.Shape, info.DType)
	e.registerTensor(out, b)
	e.recordOnTape(name, inputs, out, attrs)
	return out
}

// tryFreeKernel handles the kernels that are free because tensors are
// decoupled from their data (Section 3.4): Reshape, Identity and
// dtype-preserving Cast share the input's container.
func (e *Engine) tryFreeKernel(name string, inputs []*tensor.Tensor, attrs kernels.Attrs) (*tensor.Tensor, bool) {
	switch name {
	case "Reshape":
		if len(inputs) != 1 {
			opPanic(name, fmt.Errorf("got %d inputs, want 1", len(inputs)))
		}
		in := inputs[0]
		shape, err := tensor.InferShape(attrs.Ints("shape", nil), in.Size())
		if err != nil {
			opPanic(name, err)
		}
		out := e.shareData(in, shape, in.DType)
		e.recordOnTape(name, inputs, out, kernels.Attrs{"shape": shape, "inputShape": tensor.CopyShape(in.Shape)})
		return out, true
	case "Identity":
		if len(inputs) != 1 {
			opPanic(name, fmt.Errorf("got %d inputs, want 1", len(inputs)))
		}
		in := inputs[0]
		out := e.shareData(in, in.Shape, in.DType)
		e.recordOnTape(name, inputs, out, nil)
		return out, true
	case "Cast":
		if len(inputs) != 1 {
			opPanic(name, fmt.Errorf("got %d inputs, want 1", len(inputs)))
		}
		in := inputs[0]
		dt, err := tensor.ParseDataType(attrs.String("dtype", "float32"))
		if err != nil {
			opPanic(name, err)
		}
		if dt == in.DType || (in.DType == tensor.Bool && dt != tensor.Bool) || (in.DType == tensor.Int32 && dt == tensor.Float32) {
			// Bool (0/1) and Int32 values are already valid float32
			// payloads; only float->int/bool needs value conversion.
			out := e.shareData(in, in.Shape, dt)
			e.recordOnTape("Cast", inputs, out, attrs)
			return out, true
		}
		return nil, false
	}
	return nil, false
}

// shareData creates a tensor sharing an existing data container.
func (e *Engine) shareData(in *tensor.Tensor, shape []int, dtype tensor.DataType) *tensor.Tensor {
	e.mu.Lock()
	entry, ok := e.data[in.DataID]
	e.mu.Unlock()
	if !ok {
		opPanic("shareData", fmt.Errorf("tensor %d has no data (already disposed?)", in.ID))
	}
	out := tensor.New(in.DataID, shape, dtype)
	e.registerTensor(out, entry.backend)
	return out
}

// EnsureOnBackend migrates a tensor's data to backend b when it lives
// elsewhere, mirroring how TensorFlow.js moves data when the active backend
// changes. RunKernel does this for every operand; the graphmodel plan
// executor does it for feeds and weights before dispatching kernels itself.
func (e *Engine) EnsureOnBackend(t *tensor.Tensor, b kernels.Backend) {
	e.mu.Lock()
	entry, ok := e.data[t.DataID]
	e.mu.Unlock()
	if !ok {
		opPanic("RunKernel", fmt.Errorf("input tensor %d has no data (already disposed?)", t.ID))
	}
	if entry.backend == b {
		return
	}
	// The container keeps its DataID while moving between backends, so
	// every tensor handle sharing it stays valid. Write to the target
	// before disposing the source: a recycling source backend may scribble
	// or reuse the buffer the moment DisposeData returns.
	values := entry.backend.ReadSync(t.DataID)
	b.Write(t.DataID, values, t.Shape, t.DType)
	entry.backend.DisposeData(t.DataID)
	e.mu.Lock()
	entry.backend = b
	e.mu.Unlock()
}

// kernelInputs views tensors as kernel operands.
func kernelInputs(ts []*tensor.Tensor) []kernels.Input {
	ins := make([]kernels.Input, len(ts))
	for i, t := range ts {
		ins[i] = kernels.Input{DataID: t.DataID, Shape: t.Shape, DType: t.DType}
	}
	return ins
}

// ---------------------------------------------------------------------------
// Tidy scopes (Section 3.7)

// StartScope pushes a named tidy scope.
func (e *Engine) StartScope(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.scopes = append(e.scopes, &scope{name: name})
}

// EndScope pops the current scope and disposes every tensor created inside
// it except the escaping tensors and those marked with Keep.
func (e *Engine) EndScope(escaping []*tensor.Tensor) {
	e.mu.Lock()
	n := len(e.scopes)
	if n == 0 {
		e.mu.Unlock()
		panic("core: EndScope without matching StartScope")
	}
	s := e.scopes[n-1]
	e.scopes = e.scopes[:n-1]
	survive := map[int64]bool{}
	for id := range s.keep {
		survive[id] = true
	}
	for _, t := range escaping {
		if t != nil {
			survive[t.ID] = true
		}
	}
	var toDispose []*tensor.Tensor
	var toParent []*tensor.Tensor
	// While a gradient tape is active, intermediates must survive inner
	// tidy scopes: the backward pass still needs them. They migrate to
	// the parent scope and are disposed when the gradient computation's
	// own scope ends (the same policy as the TensorFlow.js engine, which
	// keeps tensors while gradientDepth > 0).
	inGradMode := e.gradDepth > 0
	for _, t := range s.track {
		if survive[t.ID] || t.Disposed() || inGradMode {
			toParent = append(toParent, t)
			continue
		}
		toDispose = append(toDispose, t)
	}
	// Escaping tensors are re-tracked in the parent scope so nested tidies
	// compose.
	if n2 := len(e.scopes); n2 > 0 {
		parent := e.scopes[n2-1]
		parent.track = append(parent.track, toParent...)
	}
	e.mu.Unlock()
	for _, t := range toDispose {
		t.Dispose()
	}
	if e.hub.Active() {
		// Sample the engine memory gauges at the scope boundary — the
		// memory-timeline points of the §3.7 accounting.
		e.mu.Lock()
		numTensors, numBytes := e.numTensors, e.numBytes
		e.mu.Unlock()
		e.hub.Emit(telemetry.Event{
			Kind:       telemetry.KindScope,
			Name:       s.name,
			Span:       e.Span(),
			NumTensors: numTensors,
			TotalBytes: numBytes,
		})
	}
}

// Tidy runs fn inside a scope and disposes all intermediate tensors except
// those returned (tf.tidy, Section 3.7).
func (e *Engine) Tidy(name string, fn func() []*tensor.Tensor) []*tensor.Tensor {
	e.StartScope(name)
	var out []*tensor.Tensor
	defer func() { e.EndScope(out) }()
	out = fn()
	return out
}

// RunExclusive runs fn while holding the engine's execution lock, which
// serializes whole-model execution sections across goroutines. The tidy
// scope stack is per-engine, so a tensor created by goroutine A while
// goroutine B is inside a tidy scope on the same engine would be tracked
// — and disposed — by B's scope. Any code that creates or reads tensors
// concurrently with model execution (the serving worker pool, concurrent
// graphmodel.Execute) must run its tensor-touching sections under this
// lock. The lock is not reentrant: fn must not call RunExclusive or an
// API that does (such as graphmodel.Execute).
//
// Two RunExclusive sections on different engines run concurrently — that
// is the replica-serving concurrency model. fn must address a non-global
// engine explicitly (e.MakeTensor, e.RunKernel): the ops package always
// executes on Global().
func (e *Engine) RunExclusive(fn func()) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	fn()
}

// ---------------------------------------------------------------------------
// Debug mode and profiling (Section 3.8)

// KernelRecord describes one executed kernel, as surfaced by the debug and
// profiling modes.
type KernelRecord struct {
	Name         string
	InputShapes  [][]int
	OutputShapes [][]int
	BytesAdded   int64
	TotalBytes   int64
	WallMS       float64
	KernelMS     float64
	HasKernelMS  bool
}

// SetDebugMode toggles the paper's debug mode: every kernel is profiled and
// its outputs downloaded and scanned for NaNs, panicking at the first
// kernel that introduces one. Enabling it registers a no-op observer on the
// telemetry hub so the single dispatch-time gate (hub.Active) routes
// kernels through the instrumented path even with no real observer.
func (e *Engine) SetDebugMode(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if on == e.debugOn.Load() {
		return
	}
	e.debugOn.Store(on)
	if on {
		e.debugRemove = e.hub.Register(telemetry.ObserverFunc(func(telemetry.Event) {}))
		return
	}
	if e.debugRemove != nil {
		e.debugRemove()
		e.debugRemove = nil
	}
	e.debugKernels = nil
}

// DebugKernels returns the kernel records accumulated while debug mode was
// active.
func (e *Engine) DebugKernels() []KernelRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]KernelRecord, len(e.debugKernels))
	copy(out, e.debugKernels)
	return out
}

// recordFromEvent converts a telemetry kernel event into the KernelRecord
// shape debug mode and Profile report.
func recordFromEvent(ev telemetry.Event) KernelRecord {
	return KernelRecord{
		Name:         ev.Name,
		InputShapes:  ev.InputShapes,
		OutputShapes: ev.OutputShapes,
		BytesAdded:   ev.Bytes,
		TotalBytes:   ev.TotalBytes,
		WallMS:       ev.DurMS,
		KernelMS:     ev.KernelMS,
		HasKernelMS:  ev.HasKernelMS,
	}
}

// instrumentedRun is RunKernel's dispatch under an observer: the same
// kernels.Dispatch, timed by the backend, with its memory effect accounted
// and the kernel reported through EmitKernel.
func (e *Engine) instrumentedRun(name string, b kernels.Backend, ins []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) {
	before := e.Memory().NumBytes
	start := time.Now()
	var err error
	ti := b.Time(func() { err = kernels.Dispatch(b, name, ins, attrs, out) })
	if err != nil {
		opPanic(name, err)
	}
	// The output is not a registered handle yet: its bytes are what the
	// kernel added.
	added := int64(tensor.ShapeSize(out.Shape) * out.DType.BytesPerElement())
	if nan := e.EmitKernel(name, b, start, ti, ins, *out, added, before+added); nan != nil {
		b.DisposeData(out.DataID)
		panic(nan)
	}
}

// EmitKernel reports one executed kernel to the telemetry hub and, in debug
// mode, records it and scans its outputs for NaNs (Section 3.8). It is the
// only builder of KindKernel events: RunKernel's observed path and the
// graphmodel plan executor both end here, so profiles, traces and /metrics
// describe whichever path ran in the same vocabulary. The caller timed the
// kernel under b.Time; added and total are the bytes the kernel allocated
// and the bytes live after it. Shapes are copied — observers retain events,
// callers reuse their shape storage. The returned *OpError is non-nil when
// debug mode found a NaN: the caller panics with it once it has let go of
// what the kernel produced.
func (e *Engine) EmitKernel(name string, b kernels.Backend, start time.Time, ti kernels.TimeInfo,
	ins []kernels.Input, out kernels.TensorInfo, added, total int64) *OpError {
	ev := telemetry.Event{
		Kind:        telemetry.KindKernel,
		Name:        name,
		Span:        e.Span(),
		Backend:     b.Name(),
		Start:       start,
		DurMS:       ti.WallMS,
		KernelMS:    ti.KernelMS,
		HasKernelMS: ti.HasKernelMS,
		Bytes:       added,
		TotalBytes:  total,
		Elements:    int64(tensor.ShapeSize(out.Shape)),
	}
	// Two allocations for all shapes: every served kernel passes through here.
	rank := len(out.Shape)
	for _, in := range ins {
		rank += len(in.Shape)
	}
	shapes, dims := make([][]int, 0, len(ins)+1), make([]int, 0, rank)
	add := func(shape []int) {
		dims = append(dims, shape...)
		shapes = append(shapes, dims[len(dims)-len(shape):len(dims):len(dims)])
	}
	for _, in := range ins {
		add(in.Shape)
	}
	add(out.Shape)
	ev.InputShapes, ev.OutputShapes = shapes[:len(ins):len(ins)], shapes[len(ins):]
	e.hub.Emit(ev)

	if e.debugOn.Load() {
		e.mu.Lock()
		e.debugKernels = append(e.debugKernels, recordFromEvent(ev))
		e.mu.Unlock()
		// Download the output and throw at the first NaN (Section 3.8).
		for i, v := range b.ReadSync(out.DataID) {
			if math.IsNaN(float64(v)) {
				return &OpError{Kernel: name, Err: fmt.Errorf("debug mode: NaN introduced at output element %d (output shape %v)", i, out.Shape)}
			}
		}
	}
	return nil
}

// ProfileInfo is the result of Profile (tf.profile()): memory effects and
// the kernels executed by the profiled function.
type ProfileInfo struct {
	NewBytes   int64
	NewTensors int
	PeakBytes  int64
	Kernels    []KernelRecord
}

// KernelNames returns the distinct kernel names in execution order.
func (p ProfileInfo) KernelNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, k := range p.Kernels {
		if !seen[k.Name] {
			seen[k.Name] = true
			names = append(names, k.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Profile runs f and reports its memory and kernel effects (Section 3.8).
//
// Profile is a thin compatibility wrapper over the telemetry subsystem: it
// registers a temporary observer on the engine's hub for the duration of f
// and folds the kernel events into the legacy ProfileInfo shape. New code
// should register a telemetry.Stats or telemetry.Recorder observer instead
// (tf.WithTelemetry), which also yields percentiles, per-model spans and
// Chrome traces.
func (e *Engine) Profile(f func()) ProfileInfo {
	before := e.Memory()
	var mu sync.Mutex
	info := ProfileInfo{PeakBytes: before.NumBytes}
	remove := e.hub.Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		if ev.Kind != telemetry.KindKernel {
			return
		}
		mu.Lock()
		info.Kernels = append(info.Kernels, recordFromEvent(ev))
		if ev.TotalBytes > info.PeakBytes {
			info.PeakBytes = ev.TotalBytes
		}
		mu.Unlock()
	}))

	f()
	remove()

	after := e.Memory()
	info.NewBytes = after.NumBytes - before.NumBytes
	info.NewTensors = after.NumTensors - before.NumTensors
	return info
}

// Time runs f on the active backend's timer (tf.time(), Section 3.8). For
// the WebGL backend KernelMS is the device-measured program time, excluding
// upload and download.
func (e *Engine) Time(f func()) kernels.TimeInfo {
	return e.Backend().Time(f)
}

// ---------------------------------------------------------------------------
// Tensor-lifetime tracking

// TrackLifetimes installs a tensor-lifetime tracker: until the returned
// remove function runs, every tensor-handle registration is reported to lt
// with its tidy scope, open model span and (sampled) allocation-site
// stack, every disposal clears it, and a finalizer that fires on an
// undisposed tensor marks it finalizer-reclaimed. Only one tracker may be
// installed at a time; a second installation fails. The unobserved
// allocation path pays one atomic pointer load.
func (e *Engine) TrackLifetimes(lt *telemetry.LifetimeTracker) (remove func(), err error) {
	if lt == nil {
		return nil, fmt.Errorf("core: nil lifetime tracker")
	}
	if !e.lifetime.CompareAndSwap(nil, lt) {
		return nil, fmt.Errorf("core: a lifetime tracker is already installed")
	}
	return func() { e.lifetime.CompareAndSwap(lt, nil) }, nil
}

var _ tensor.Handler = (*Engine)(nil)
