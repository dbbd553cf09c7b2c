package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphmodel"
	"repro/internal/kernels"
	"repro/internal/layers"
	"repro/internal/tensor"
)

// runner executes one batch of same-shaped instances against a loaded
// model. Implementations own every tensor they create and must be safe for
// concurrent calls (they serialize internally on the engine lock).
type runner interface {
	run(batch []Instance) ([]Instance, error)
}

// runnerFunc adapts a function to the runner interface (tests, stubs).
type runnerFunc func(batch []Instance) ([]Instance, error)

func (f runnerFunc) run(batch []Instance) ([]Instance, error) { return f(batch) }

// costEstimator is the optional runner refinement behind measured
// retry-after hints: a runner that can report its model's observed
// per-execution wall time (ms; 0 = nothing measured yet, e.g. profiling
// off or no executions). The scheduler folds the estimate into its
// backoff hint when the execute-stage histogram has no samples yet.
type costEstimator interface {
	estimateExecMS() float64
}

// recoverOpError converts op panics (shape mismatches, unknown kernels)
// into errors: one malformed request must not take the server down.
func recoverOpError(err *error) {
	if r := recover(); r != nil {
		if oe, ok := r.(*core.OpError); ok {
			*err = oe
			return
		}
		*err = fmt.Errorf("serving: execution panic: %v", r)
	}
}

// concatBatch uploads every instance as a [1, shape...] tensor and concats
// them along the batch dimension. Caller holds the execution lock.
func concatBatch(e *core.Engine, batch []Instance) *tensor.Tensor {
	parts := make([]*tensor.Tensor, len(batch))
	for i, in := range batch {
		parts[i] = e.MakeTensor(in.Values, append([]int{1}, in.Shape...), tensor.Float32)
	}
	if len(parts) == 1 {
		return parts[0]
	}
	batched := e.RunKernel1("Concat", parts, kernels.Attrs{"axis": 0})
	for _, p := range parts {
		p.Dispose()
	}
	return batched
}

// splitBatch splits a [n, shape...] output back into per-example
// instances and disposes the batched tensor. Caller holds the execution
// lock of e, the engine y lives on.
func splitBatch(e *core.Engine, y *tensor.Tensor, n int) []Instance {
	defer y.Dispose()
	outShape := tensor.CopyShape(y.Shape[1:])
	out := make([]Instance, n)
	if n == 1 {
		out[0] = Instance{Values: append([]float32(nil), y.DataSync()...), Shape: outShape}
		return out
	}
	if y.Shape[0]%n != 0 {
		panic(&core.OpError{Kernel: "Split", Err: fmt.Errorf("cannot split output %v into %d instances", y.Shape, n)})
	}
	begin, size := make([]int, y.Rank()), tensor.CopyShape(y.Shape)
	size[0] = y.Shape[0] / n
	for i := range out {
		begin[0] = i * size[0]
		p := e.RunKernel1("Slice", []*tensor.Tensor{y}, kernels.Attrs{
			"begin": tensor.CopyShape(begin), "size": tensor.CopyShape(size)})
		out[i] = Instance{Values: append([]float32(nil), p.DataSync()...), Shape: outShape}
		p.Dispose()
	}
	return out
}

// graphRunner serves a converted graph model. The batched input feeds the
// first serving input; predictions come from the first serving output.
type graphRunner struct {
	model   *graphmodel.Model
	backend string
	input   string
	output  string
}

func newGraphRunner(m *graphmodel.Model, backend string) (*graphRunner, error) {
	g := m.Graph()
	if len(g.Inputs) == 0 || len(g.Outputs) == 0 {
		return nil, fmt.Errorf("serving: graph model declares no serving signature (%d inputs, %d outputs)",
			len(g.Inputs), len(g.Outputs))
	}
	return &graphRunner{model: m, backend: backend, input: g.Inputs[0], output: g.Outputs[0]}, nil
}

// estimateExecMS implements costEstimator from the model's continuous
// profiler account.
func (r *graphRunner) estimateExecMS() float64 { return r.model.MeasuredExecuteMS() }

func (r *graphRunner) run(batch []Instance) (out []Instance, err error) {
	defer recoverOpError(&err)
	// The model's engine, not the global one: in a replica pool each
	// graphRunner is bound to its own engine, and the upload, execute and
	// split sections below all serialize on that engine alone — runs on
	// sibling replicas proceed concurrently.
	e := r.model.Engine()
	var batched *tensor.Tensor
	e.RunExclusive(func() {
		if serr := e.SetBackend(r.backend); serr != nil {
			err = serr
			return
		}
		batched = concatBatch(e, batch)
	})
	if err != nil {
		return nil, err
	}
	outs, err := r.model.Execute(map[string]*tensor.Tensor{r.input: batched})
	if err != nil {
		e.RunExclusive(func() { batched.Dispose() })
		return nil, err
	}
	e.RunExclusive(func() {
		batched.Dispose()
		out = splitBatch(e, outs[r.output], len(batch))
	})
	return out, nil
}

// layersRunner serves a restored Layers-API model via Sequential.Predict.
type layersRunner struct {
	model   *layers.Sequential
	backend string
	span    string // telemetry span label ("<name>:predict")
}

func (r *layersRunner) run(batch []Instance) (out []Instance, err error) {
	defer recoverOpError(&err)
	e := core.Global()
	e.RunExclusive(func() {
		if r.span != "" {
			end := e.BeginSpan(r.span)
			defer end()
		}
		if serr := e.SetBackend(r.backend); serr != nil {
			err = serr
			return
		}
		batched := concatBatch(e, batch)
		y := r.model.Predict(batched)
		batched.Dispose()
		out = splitBatch(e, y, len(batch))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
