package tf

import (
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/native"
	"repro/internal/telemetry"
)

// TelemetryEvent is one record emitted by the engine and the backends:
// kernel dispatches, tensor uploads/downloads, tidy-scope memory samples,
// model spans and simulated-device fence/page events.
type TelemetryEvent = telemetry.Event

// TelemetryObserver receives telemetry events. Observers run inline on the
// emitting goroutine and must not block.
type TelemetryObserver = telemetry.Observer

// TelemetryObserverFunc adapts a function to TelemetryObserver.
type TelemetryObserverFunc = telemetry.ObserverFunc

// TraceRecorder is the bounded ring-buffer trace recorder; register it
// with WithTelemetry and render via WriteChromeTrace.
type TraceRecorder = telemetry.Recorder

// KernelStats aggregates per-kernel counts, total/p50/p95 times and bytes
// moved; register it with WithTelemetry.
type KernelStats = telemetry.Stats

// NewTraceRecorder returns a trace recorder keeping the last capacity
// events (<= 0 selects the default capacity).
func NewTraceRecorder(capacity int) *TraceRecorder { return telemetry.NewRecorder(capacity) }

// NewKernelStats returns an empty kernel-stats aggregator.
func NewKernelStats() *KernelStats { return telemetry.NewStats() }

// WithTelemetry registers observers on the global engine's telemetry hub
// and returns a function removing them. This is the one instrumentation
// surface: tracing, kernel statistics, memory timelines and custom hooks
// all attach here. With no observer registered the engine's hot path pays
// a single atomic load per kernel.
//
//	rec := tf.NewTraceRecorder(0)
//	defer tf.WithTelemetry(rec)()
//	// ... run model ...
//	rec.WriteChromeTrace(f, time.Time{})
func WithTelemetry(obs ...TelemetryObserver) (remove func()) {
	hub := core.Global().Telemetry()
	removes := make([]func(), 0, len(obs))
	for _, o := range obs {
		removes = append(removes, hub.Register(o))
	}
	return func() {
		for _, r := range removes {
			r()
		}
	}
}

// LeakReport attributes live (undisposed) tensors to their allocation
// sites, tidy scopes and model spans, and separates tensors the garbage
// collector had to finalize from those disposed deterministically.
type LeakReport = telemetry.LeakReport

// LifetimeTracker records tensor allocate/dispose/finalize lifecycles
// with sampled allocation-site stacks; install it on the engine with
// EngineOf().TrackLifetimes for long-window captures, or use LeakCheck
// for the common run-and-report case.
type LifetimeTracker = telemetry.LifetimeTracker

// NewLifetimeTracker returns a tracker capturing an allocation-site
// stack every sampleEvery-th allocation (1 = every allocation).
func NewLifetimeTracker(sampleEvery int) *LifetimeTracker {
	return telemetry.NewLifetimeTracker(sampleEvery)
}

// LeakCheck runs fn under a tensor-lifetime tracker and reports every
// tensor fn allocated and failed to dispose, each attributed to the
// source line that allocated it and the tidy scope it escaped from:
//
//	rep, _ := tf.LeakCheck(func() {
//	    a := tf.Tensor1D(1, 2, 3)   // leaked: no Dispose, no tidy
//	    _ = a
//	})
//	fmt.Print(rep)                  // 1 live tensor @ main.go:42
//
// Tensors fn returns on purpose count as leaks too — run the check
// around code that should be net-zero (a tidy body, one serving
// request). Allocation sites are captured for every allocation
// (sampling 1), so a nonempty report always names lines. The engine
// holds at most one tracker; LeakCheck errors if another capture (e.g.
// a serving /debug/memory?leaks=N window) is in flight.
//
// The static tensorleak analyzer (go run ./cmd/tfjs-vet) catches the
// same bug class at vet time and names allocation sites in the same
// "func (file:line)" format, so a runtime report and a static finding
// for one leak point at the same line.
func LeakCheck(fn func()) (*LeakReport, error) {
	lt := telemetry.NewLifetimeTracker(1)
	remove, err := core.Global().TrackLifetimes(lt)
	if err != nil {
		return nil, err
	}
	defer remove()
	fn()
	rep := lt.Report()
	if dm, ok := core.Global().Backend().(interface {
		DeviceMemory() *telemetry.DeviceMemory
	}); ok {
		rep.Device = dm.DeviceMemory()
	}
	return rep, nil
}

var (
	nodeMu      sync.Mutex
	nodeBackend *native.Backend
	pendingExec exec.Config
)

// newNodeBackend builds the "node" backend, applying any execution config
// accumulated before the backend was first activated.
func newNodeBackend() *native.Backend {
	nodeMu.Lock()
	defer nodeMu.Unlock()
	b := native.New()
	b.ApplyExecConfig(pendingExec)
	nodeBackend = b
	return b
}

// NumWorkers reports the "node" backend's current worker-pool size (the
// configured value when the backend has not been instantiated yet).
func NumWorkers() int {
	nodeMu.Lock()
	defer nodeMu.Unlock()
	if nodeBackend != nil {
		return nodeBackend.Workers()
	}
	if pendingExec.Workers > 0 {
		return pendingExec.Workers
	}
	return native.DefaultWorkers()
}
