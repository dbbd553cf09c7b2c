package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphmodel"
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

// gatherBatch copies every instance's row into *slab and uploads the slab
// as one [n, shape...] tensor. The backend's Write (§3.4) copies it into
// the container it owns — the only other copy a request's input bytes see —
// so the tensor never aliases the slab, which is the runner's and keeps
// its capacity between batches; the caller holds e's execution lock, which
// is what lets several scheduler workers share it. An instance whose value
// count is not its shape's, or not the batch's row length, fails the whole
// batch before anything is uploaded, so no batch-mate can receive a
// shifted row.
func gatherBatch(e *core.Engine, slab *[]float32, batch []Instance) (*tensor.Tensor, error) {
	shape := append([]int{len(batch)}, batch[0].Shape...)
	row := batch[0].numElements()
	buf := (*slab)[:0]
	for _, in := range batch {
		if len(in.Values) != row || in.numElements() != row {
			return nil, &core.OpError{Kernel: "MakeTensor", Err: fmt.Errorf(
				"instance has %d values for shape %v in a batch of %d-value rows", len(in.Values), in.Shape, row)}
		}
		buf = append(buf, in.Values...)
	}
	*slab = buf
	return e.MakeTensor(buf, shape, tensor.Float32), nil
}

// splitBatch reads the [n, shape...] output back once, hands request i row
// i of it and disposes the tensor. The engine's read is already safe to
// retain; capping each row's capacity at its length keeps an append to one
// request's values out of its neighbour's. An output whose leading
// dimension is not the batch size is the model's fault, not the client's,
// and is reported as such (500). Caller holds the execution lock of the
// engine y lives on.
func splitBatch(model string, y *tensor.Tensor, n int) ([]Instance, error) {
	defer y.Dispose()
	if y.Rank() == 0 || y.Shape[0] != n {
		return nil, fmt.Errorf("serving: model %q produced output shape %v for a batch of %d: its leading dimension is not the batch size",
			model, y.Shape, n)
	}
	vals := y.DataSync()
	shape := tensor.CopyShape(y.Shape[1:])
	row := len(vals) / n
	out := make([]Instance, n)
	for i := range out {
		out[i] = Instance{Values: vals[i*row : (i+1)*row : (i+1)*row], Shape: shape}
	}
	return out, nil
}

// graphRunner serves a converted graph model. The batched input feeds the
// first serving input; predictions come from the first serving output.
type graphRunner struct {
	model   *graphmodel.Model
	backend string
	input   string
	output  string
	slab    []float32 // gatherBatch's buffer; touched only under the engine's execution lock
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
		if err = e.SetBackend(r.backend); err == nil {
			batched, err = gatherBatch(e, &r.slab, batch)
		}
	})
	if err != nil {
		return nil, err
	}
	outs, err := r.model.Execute(map[string]*tensor.Tensor{r.input: batched})
	e.RunExclusive(func() {
		batched.Dispose()
		if err == nil {
			out, err = splitBatch(r.model.Name(), outs[r.output], len(batch))
		}
	})
	return out, err
}

// layersRunner serves a restored Layers-API model via Sequential.Predict.
type layersRunner struct {
	model   *layers.Sequential
	backend string
	name    string    // model name, for errors and the "<name>:predict" span
	slab    []float32 // gatherBatch's buffer; touched only under the engine's execution lock
}

func (r *layersRunner) run(batch []Instance) (out []Instance, err error) {
	defer recoverOpError(&err)
	e := core.Global()
	e.RunExclusive(func() {
		defer e.BeginSpan(r.name + ":predict")()
		if err = e.SetBackend(r.backend); err != nil {
			return
		}
		var batched *tensor.Tensor
		if batched, err = gatherBatch(e, &r.slab, batch); err != nil {
			return
		}
		defer batched.Dispose() // also when Predict panics on a shape the model rejects
		out, err = splitBatch(r.name, r.model.Predict(batched), len(batch))
	})
	return out, err
}
