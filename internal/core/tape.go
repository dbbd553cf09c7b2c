package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// GradFunc computes the gradients of a kernel's inputs given the gradients
// of its outputs. Entries in the returned slice align with the kernel's
// inputs; a nil entry means the input is not differentiable (for example,
// integer index inputs).
type GradFunc func(e *Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor

// WatchedGradFunc is a GradFunc that is also told which of the kernel's
// inputs the tape being walked watches: watched[i] is false when nothing
// the caller differentiates against reaches inputs[i] (a data batch, a
// frozen weight), so its gradient would be accumulated and never read.
// The function may return nil for such an input instead of running the
// backward kernel (TF.js prunes the same way: a gradient function returns
// one thunk per input and the engine calls only those on a path from the
// requested xs).
type WatchedGradFunc func(e *Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs, watched []bool) []*tensor.Tensor

var (
	gradMu       sync.RWMutex
	gradRegistry = map[string]WatchedGradFunc{}
)

// RegisterGradient installs the gradient definition of a kernel. The ops
// package registers gradients for every differentiable kernel at init time.
func RegisterGradient(kernel string, fn GradFunc) {
	RegisterWatchedGradient(kernel, fn.ignoreWatched())
}

// RegisterWatchedGradient is RegisterGradient for a kernel whose backward
// pass is one expensive kernel per input, worth skipping for an input
// nobody watches.
func RegisterWatchedGradient(kernel string, fn WatchedGradFunc) {
	gradMu.Lock()
	defer gradMu.Unlock()
	if _, dup := gradRegistry[kernel]; dup {
		panic(fmt.Sprintf("core: duplicate gradient for kernel %q", kernel))
	}
	gradRegistry[kernel] = fn
}

func (fn GradFunc) ignoreWatched() WatchedGradFunc {
	return func(e *Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs, _ []bool) []*tensor.Tensor {
		return fn(e, dys, inputs, outputs, attrs)
	}
}

func lookupGradient(kernel string) (WatchedGradFunc, bool) {
	gradMu.RLock()
	defer gradMu.RUnlock()
	fn, ok := gradRegistry[kernel]
	return fn, ok
}

// tapeNode records one differentiable kernel execution (Section 3.5: the
// eager engine records operations as they execute and replays them in
// reverse to compute gradients).
type tapeNode struct {
	kernel  string
	inputs  []*tensor.Tensor
	outputs []*tensor.Tensor
	attrs   kernels.Attrs
	gradFn  GradFunc // non-nil for custom gradients
	// out and in back outputs and inputs for a kernel's one output and up
	// to three inputs: recording a dispatch is one allocation.
	out [1]*tensor.Tensor
	in  [3]*tensor.Tensor
}

// tape is one active gradient recording.
type tape struct {
	nodes   []*tapeNode
	watched map[int64]bool
}

// recordOnTape records a kernel's one output through record. The node
// copies the inputs, so the caller's slice is not kept and need not
// escape.
func (e *Engine) recordOnTape(kernel string, inputs []*tensor.Tensor, out *tensor.Tensor, attrs kernels.Attrs) {
	e.record(inputs, func() *tapeNode {
		node := &tapeNode{kernel: kernel, attrs: attrs}
		node.inputs, node.out[0] = append(node.in[:0], inputs...), out
		node.outputs = node.out[:]
		return node
	})
}

// record adds the node build returns to every active tape that watches one
// of inputs, calling build only once a tape keeps it: with no tape
// recording, or none watching, an op allocates nothing here. Nested tapes
// (higher-order gradients) each need their own view of the forward pass:
// an op executed inside an inner gradient scope may still be a function
// of an outer tape's watched tensors.
func (e *Engine) record(inputs []*tensor.Tensor, build func() *tapeNode) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tapePaused {
		return
	}
	var node *tapeNode
	for _, t := range e.tapes {
		if !slices.ContainsFunc(inputs, func(in *tensor.Tensor) bool { return t.watched[in.ID] }) {
			continue
		}
		if node == nil {
			node = build()
		}
		t.nodes = append(t.nodes, node)
		for _, out := range node.outputs {
			t.watched[out.ID] = true
		}
	}
}

// pauseTape suspends tape recording for the duration of fn; used by
// CustomGrad so a composed forward pass records as a single node.
func (e *Engine) pauseTape(fn func()) {
	e.mu.Lock()
	prev := e.tapePaused
	e.tapePaused = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.tapePaused = prev
		e.mu.Unlock()
	}()
	fn()
}

// GradResult is the outcome of a gradient computation.
type GradResult struct {
	// Value is the output of the differentiated function.
	Value *tensor.Tensor
	// Grads holds one gradient per requested tensor, in order. A tensor
	// the function never used receives a zero gradient.
	Grads []*tensor.Tensor
}

// Gradients runs f under a gradient tape watching xs and returns f's value
// together with d(f)/d(x) for each x (Section 3.5). If dy is nil f must
// return a scalar, which is seeded with gradient 1; otherwise dy must match
// the value's shape.
//
// Intermediate tensors created by f and by the backward pass are disposed
// before returning; only the value and the gradients survive.
func (e *Engine) Gradients(f func() *tensor.Tensor, xs []*tensor.Tensor, dy *tensor.Tensor) GradResult {
	if len(xs) == 0 {
		opPanic("Gradients", fmt.Errorf("no tensors to differentiate against"))
	}
	var res GradResult
	e.StartScope("gradients")
	escaping := func() []*tensor.Tensor {
		out := append([]*tensor.Tensor{res.Value}, res.Grads...)
		return out
	}
	defer func() { e.EndScope(escaping()) }()

	t := &tape{watched: map[int64]bool{}}
	for _, x := range xs {
		t.watched[x.ID] = true
	}
	e.mu.Lock()
	e.tapes = append(e.tapes, t)
	e.gradDepth++
	e.mu.Unlock()

	y := func() *tensor.Tensor {
		defer func() {
			e.mu.Lock()
			e.tapes = e.tapes[:len(e.tapes)-1]
			e.gradDepth--
			e.mu.Unlock()
		}()
		return f()
	}()
	if y == nil {
		opPanic("Gradients", fmt.Errorf("function returned nil"))
	}
	res.Value = y

	seed := dy
	if seed == nil {
		if y.Size() != 1 {
			opPanic("Gradients", fmt.Errorf("function must return a scalar when dy is nil; got shape %v", y.Shape))
		}
		seed = e.RunKernel("Fill", nil, kernels.Attrs{Shape: tensor.CopyShape(y.Shape), Value: 1.0})
	} else if !tensor.ShapesEqual(seed.Shape, y.Shape) {
		opPanic("Gradients", fmt.Errorf("dy shape %v does not match value shape %v", seed.Shape, y.Shape))
	}

	accum := e.backprop(t, y, seed)
	res.Grads = make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		if g, ok := accum[x.ID]; ok {
			res.Grads[i] = g
		} else {
			res.Grads[i] = e.RunKernel("Fill", nil, kernels.Attrs{Shape: tensor.CopyShape(x.Shape), Value: 0.0})
		}
	}
	return res
}

// backprop walks the tape in reverse, accumulating gradients per tensor id.
func (e *Engine) backprop(t *tape, y, seed *tensor.Tensor) map[int64]*tensor.Tensor {
	accum := map[int64]*tensor.Tensor{y.ID: seed}
	for i := len(t.nodes) - 1; i >= 0; i-- {
		node := t.nodes[i]
		dys := make([]*tensor.Tensor, len(node.outputs))
		any := false
		for j, out := range node.outputs {
			if g, ok := accum[out.ID]; ok {
				dys[j] = g
				any = true
			}
		}
		if !any {
			continue
		}
		// Fill missing output grads with zeros so gradient functions can
		// assume every dy is present.
		for j, out := range node.outputs {
			if dys[j] == nil {
				dys[j] = e.RunKernel("Fill", nil, kernels.Attrs{Shape: tensor.CopyShape(out.Shape), Value: 0.0})
			}
		}
		var inGrads []*tensor.Tensor
		if node.gradFn != nil {
			inGrads = node.gradFn(e, dys, node.inputs, node.outputs, node.attrs)
		} else {
			fn, ok := lookupGradient(node.kernel)
			if !ok {
				opPanic(node.kernel, fmt.Errorf("kernel has no registered gradient"))
			}
			// An input this tape does not watch is neither one of the xs
			// nor the output of a recorded node: nothing reads its gradient.
			watched := make([]bool, len(node.inputs))
			for j, in := range node.inputs {
				watched[j] = t.watched[in.ID]
			}
			inGrads = fn(e, dys, node.inputs, node.outputs, node.attrs, watched)
		}
		if len(inGrads) != len(node.inputs) {
			opPanic(node.kernel, fmt.Errorf("gradient returned %d grads for %d inputs", len(inGrads), len(node.inputs)))
		}
		for j, g := range inGrads {
			if g == nil {
				continue
			}
			in := node.inputs[j]
			if !tensor.ShapesEqual(g.Shape, in.Shape) {
				opPanic(node.kernel, fmt.Errorf("gradient %d has shape %v, input has shape %v", j, g.Shape, in.Shape))
			}
			if prev, ok := accum[in.ID]; ok {
				accum[in.ID] = e.RunKernel("Add", []*tensor.Tensor{prev, g}, kernels.Attrs{})
			} else {
				accum[in.ID] = g
			}
		}
	}
	return accum
}

// CustomGrad runs fwd with tape recording paused and records the whole call
// as a single differentiable node using the returned gradient function
// (tf.customGrad).
func (e *Engine) CustomGrad(name string, inputs []*tensor.Tensor, fwd func() ([]*tensor.Tensor, GradFunc)) []*tensor.Tensor {
	var outs []*tensor.Tensor
	var gradFn GradFunc
	e.pauseTape(func() {
		outs, gradFn = fwd()
	})
	if gradFn == nil {
		opPanic(name, fmt.Errorf("custom gradient function is nil"))
	}
	e.record(inputs, func() *tapeNode { return &tapeNode{kernel: name, inputs: inputs, outputs: outs, gradFn: gradFn} })
	return outs
}

// GradDepth reports the current gradient-recording nesting depth. Tidy
// scopes suppress disposal while a tape is active so intermediates survive
// until the backward pass has consumed them.
func (e *Engine) GradDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gradDepth
}

func init() {
	// Gradients of the engine-level free kernels.
	RegisterGradient("Identity", func(e *Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		return []*tensor.Tensor{dys[0]}
	})
	RegisterGradient("Reshape", func(e *Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		g := e.RunKernel("Reshape", []*tensor.Tensor{dys[0]}, kernels.Attrs{Shape: inputs[0].Shape})
		return []*tensor.Tensor{g}
	})
	RegisterGradient("Cast", func(e *Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		return []*tensor.Tensor{dys[0]}
	})
}
