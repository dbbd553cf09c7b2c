// Package serving is the model-server subsystem: it turns the repository's
// conversion + execution pipeline (§5.1: convert → store → load → execute)
// into a production-shaped HTTP service, the deployment endpoint the
// ROADMAP's "heavy traffic" north star requires.
//
// Four layers:
//
//   - Registry: named models loaded from converter.Store artifact stores
//     (graph models and layers models), with per-model backend selection
//     and load/unload/ready lifecycle states.
//   - Batcher: a dynamic micro-batcher coalescing concurrent single-example
//     Predict requests into one batched Execute along the batch dimension,
//     governed by MaxBatchSize and BatchTimeout. A batch is a slab: the
//     runner copies each request's row into one reused buffer, uploads it
//     with a single write, reads the output back once and hands every
//     request its row of it — no kernel is dispatched to move bytes. Both
//     copies are timed inside the execute stage; the gather stage is the
//     wait for the batch to form.
//   - Scheduler: a bounded per-model request queue and worker pool with
//     backpressure — queue-full and not-ready fail fast instead of
//     blocking — and context-deadline propagation.
//   - HTTP API: a KServe-V1-style surface (GET /v1/models,
//     GET /v1/models/{name}, POST /v1/models/{name}:predict) plus /healthz
//     and /metrics with latency/batch-size histograms and engine memory
//     counters.
//
// Concurrency model: the engine's tidy scope stack is process-global, so
// every tensor-touching section runs under core.Engine.RunExclusive and
// whole-model executions serialize. Batching is therefore the throughput
// lever: one batched Execute amortizes per-call overhead (kernel dispatch,
// scope bookkeeping, weight reads) across the whole batch and gives the
// backend's parallel kernels enough work to use every core.
package serving

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors mapped to HTTP status codes by the API layer.
var (
	// ErrQueueFull rejects a request when the model's bounded queue is at
	// capacity — backpressure (429) instead of unbounded buffering.
	ErrQueueFull = errors.New("serving: request queue full")
	// ErrNotReady rejects requests to a model that is still loading or
	// failed to load (503).
	ErrNotReady = errors.New("serving: model not ready")
	// ErrNotFound rejects requests to an unregistered model (404).
	ErrNotFound = errors.New("serving: model not found")
	// ErrShuttingDown rejects requests after Unload/Close (503).
	ErrShuttingDown = errors.New("serving: model shutting down")
)

// Config tunes one model's scheduler and micro-batcher.
type Config struct {
	// MaxBatchSize caps how many queued single-example requests coalesce
	// into one batched execution. 1 disables batching. Default 16.
	MaxBatchSize int
	// BatchTimeout bounds how long an under-full batch waits for more
	// requests after the first arrives. Default 2ms.
	BatchTimeout time.Duration
	// QueueSize bounds the pending-request queue; submissions beyond it
	// fail with ErrQueueFull. Default 128.
	QueueSize int
	// Workers is the number of batch-assembly workers draining the queue.
	// Executions still serialize on the engine lock; extra workers overlap
	// batch assembly and result delivery with execution. Default 1.
	Workers int
	// RequestTimeout is the server-side cap on end-to-end request latency;
	// expired requests are dropped at batch assembly. 0 means 30s.
	RequestTimeout time.Duration
}

// withDefaults fills zero fields with production defaults.
func (c Config) withDefaults() Config {
	if c.MaxBatchSize <= 0 {
		c.MaxBatchSize = 16
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Millisecond
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Instance is one example crossing the serving boundary: a flat float32
// payload plus its per-example shape (no batch dimension; scalar instances
// have an empty shape).
type Instance struct {
	Values []float32
	Shape  []int
}

// numElements returns the product of the shape dimensions.
func (in Instance) numElements() int {
	n := 1
	for _, d := range in.Shape {
		n *= d
	}
	return n
}

// ParseInstance converts a decoded JSON value (nested arrays of numbers,
// or a bare number) into an Instance, inferring the shape from the
// nesting and validating that it is rectangular. It is the API for
// callers that already hold a decoded value; the HTTP endpoints decode
// request bytes directly (codec.go) and keep this as their test oracle.
func ParseInstance(v any) (Instance, error) {
	var inst Instance
	shape, err := inferShape(v)
	if err != nil {
		return inst, err
	}
	inst.Shape = shape
	inst.Values = make([]float32, 0, inst.numElements())
	if err := flattenInto(v, shape, &inst.Values); err != nil {
		return inst, err
	}
	return inst, nil
}

func inferShape(v any) ([]int, error) {
	switch x := v.(type) {
	case float64:
		return nil, nil
	case []any:
		if len(x) == 0 {
			return []int{0}, nil
		}
		inner, err := inferShape(x[0])
		if err != nil {
			return nil, err
		}
		return append([]int{len(x)}, inner...), nil
	default:
		return nil, fmt.Errorf("serving: instance element %T is not a number or array", v)
	}
}

func flattenInto(v any, shape []int, out *[]float32) error {
	if len(shape) == 0 {
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("serving: ragged instance: expected number, got %T", v)
		}
		*out = append(*out, float32(f))
		return nil
	}
	arr, ok := v.([]any)
	if !ok || len(arr) != shape[0] {
		return fmt.Errorf("serving: ragged instance: expected array of %d, got %T", shape[0], v)
	}
	for _, e := range arr {
		if err := flattenInto(e, shape[1:], out); err != nil {
			return err
		}
	}
	return nil
}

// Render converts the instance back into nested arrays for JSON encoding
// by the caller. The HTTP endpoints write response bytes directly
// (codec.go), identical to encoding/json's for this tree.
func (in Instance) Render() any {
	v, _ := render(in.Values, in.Shape)
	return v
}

func render(values []float32, shape []int) (any, []float32) {
	if len(shape) == 0 {
		return values[0], values[1:]
	}
	out := make([]any, shape[0])
	for i := range out {
		out[i], values = render(values, shape[1:])
	}
	return out, values
}
