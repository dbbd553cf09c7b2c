package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphmodel"
	"repro/internal/tensor"
)

// runner executes one batch of same-shaped instances against a loaded
// model and appends one result per instance to out, the caller's scratch,
// returning the extended slice. Implementations own every tensor they create
// and must be safe for concurrent calls (they serialize internally on the
// engine lock).
type runner interface {
	run(batch, out []Instance) ([]Instance, error)
}

// runnerFunc adapts a function to the runner interface (tests, stubs).
type runnerFunc func(batch []Instance) ([]Instance, error)

func (f runnerFunc) run(batch, out []Instance) ([]Instance, error) {
	res, err := f(batch)
	return append(out, res...), err
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

// gather copies every instance's row into r.slab and uploads the slab as
// one [n, shape...] tensor. The backend's Write (§3.4) copies it into the
// container it owns — the only other copy a request's input bytes see — so
// the tensor never aliases the slab, which is the runner's and keeps its
// capacity between batches, as r.shape does (MakeTensor copies the shape);
// the caller holds e's execution lock, which is what lets several
// scheduler workers share them. An instance whose value count is not its
// shape's, or not the batch's row length, fails the whole batch before
// anything is uploaded, so no batch-mate can receive a shifted row.
func (r *graphRunner) gather(e *core.Engine, batch []Instance) (*tensor.Tensor, error) {
	r.shape = append(append(r.shape[:0], len(batch)), batch[0].Shape...)
	row := batch[0].numElements()
	buf := r.slab[:0]
	for _, in := range batch {
		if len(in.Values) != row || in.numElements() != row {
			return nil, &core.OpError{Kernel: "MakeTensor", Err: fmt.Errorf(
				"instance has %d values for shape %v in a batch of %d-value rows", len(in.Values), in.Shape, row)}
		}
		buf = append(buf, in.Values...)
	}
	r.slab = buf
	return e.MakeTensor(buf, r.shape, tensor.Float32), nil
}

// splitBatch reads the [n, shape...] output back once, appends request i's
// row i of it to out and disposes the tensor. The engine's read is already
// safe to retain, and so is y's shape, which nothing writes once the handle
// is made; capping each row's capacity at its length keeps an append to one
// request's values out of its neighbour's. An output whose leading
// dimension is not the batch size is the model's fault, not the client's,
// and is reported as such (500). Caller holds the execution lock of the
// engine y lives on.
func splitBatch(model string, y *tensor.Tensor, n int, out []Instance) ([]Instance, error) {
	defer y.Dispose()
	if y.Rank() == 0 || y.Shape[0] != n {
		return out, fmt.Errorf("serving: model %q produced output shape %v for a batch of %d: its leading dimension is not the batch size",
			model, y.Shape, n)
	}
	vals := y.DataSync()
	shape := y.Shape[1:len(y.Shape):len(y.Shape)]
	row := len(vals) / n
	for i := 0; i < n; i++ {
		out = append(out, Instance{Values: vals[i*row : (i+1)*row : (i+1)*row], Shape: shape})
	}
	return out, nil
}

// graphRunner serves a converted graph model (graphmodel.Model.Predict):
// the batched input feeds the first serving input, and predictions come
// from the first serving output.
type graphRunner struct {
	model   *graphmodel.Model
	backend string
	// slab and shape are gather's buffers, touched only under the engine's
	// execution lock.
	slab  []float32
	shape []int
}

func newGraphRunner(m *graphmodel.Model, backend string) (*graphRunner, error) {
	// A graph always declares an output (GraphDef.Validate); an input it
	// may not.
	if len(m.Graph().Inputs) == 0 {
		return nil, fmt.Errorf("serving: graph model declares no serving input")
	}
	return &graphRunner{model: m, backend: backend}, nil
}

func (r *graphRunner) run(batch, out []Instance) (_ []Instance, err error) {
	defer recoverOpError(&err)
	// The model's engine, not the global one: in a replica pool each
	// graphRunner is bound to its own engine, and the upload, execute and
	// split sections below all serialize on that engine alone — runs on
	// sibling replicas proceed concurrently.
	e := r.model.Engine()
	var batched *tensor.Tensor
	e.RunExclusive(func() {
		if err = e.SetBackend(r.backend); err == nil {
			batched, err = r.gather(e, batch)
		}
	})
	if err != nil {
		return out, err
	}
	y, err := r.predict(batched)
	e.RunExclusive(func() {
		batched.Dispose()
		if err == nil {
			out, err = splitBatch(r.model.Name(), y, len(batch), out)
		}
	})
	return out, err
}

// predict is the model's Predict with its panics turned into errors here,
// so that run disposes the batched input whatever the plan does.
func (r *graphRunner) predict(x *tensor.Tensor) (_ *tensor.Tensor, err error) {
	defer recoverOpError(&err)
	return r.model.Predict(x)
}
