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
// integer index inputs). dys, inputs and outputs are the tape's: the
// function must not keep the slices past its return.
type GradFunc func(e *Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor

// WatchedGradFunc is a GradFunc that is also told which of the kernel's
// inputs the tape being walked watches: watched[i] is false when nothing
// the caller differentiates against reaches inputs[i] (a data batch, a
// frozen weight), so its gradient would be accumulated and never read.
// The function may return nil for such an input instead of running the
// backward kernel (TF.js prunes the same way: a gradient function returns
// one thunk per input and the engine calls only those on a path from the
// requested xs). watched, like dys, is the tape's scratch.
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
	// to three inputs: recording a dispatch writes into the slab alone.
	out [1]*tensor.Tensor
	in  [3]*tensor.Tensor
}

// tapeChunk is the number of nodes in one chunk of a tape's slab, and
// maxTapeNodes the most a recycled tape keeps: a tape that recorded more
// hands the rest of its slab, and its maps, to the garbage collector.
const (
	tapeChunk    = 64
	maxTapeNodes = 1024
)

// tape is one gradient recording. An engine recycles its tapes
// (takeTape, releaseTape): a training step records into the slab, the maps
// and the slices the last step left, cleared.
//
// A node lives in the slab of the outermost active tape that keeps it, and
// an inner tape that keeps it too points there. Tapes are strictly nested
// (Gradients pushes its tape and pops it before it returns), so every
// inner tape is released before the outer one whose slab it points into
// is cleared.
type tape struct {
	// nodes are the recorded nodes in order, some of them in an outer
	// tape's slab; slab holds the nodes this tape owns, used of them
	// taken.
	nodes []*tapeNode
	slab  []*[tapeChunk]tapeNode
	used  int
	// watched holds the ids of the xs and of every recorded output.
	watched map[int64]bool
	// accum is the backward pass's gradient sum per tensor id.
	accum map[int64]*tensor.Tensor
	// xs are the tensors differentiated against (nil for one that is
	// not), grads their gradients; keep is the gradient scope's escaping
	// list; dys and watchedIn are backprop's per-node scratch.
	xs, grads, keep, dys []*tensor.Tensor
	watchedIn            []bool
}

// alloc returns a zeroed node from t's slab. A chunk never moves, so the
// node stays where it is until reset.
func (t *tape) alloc() *tapeNode {
	c, i := t.used/tapeChunk, t.used%tapeChunk
	if c == len(t.slab) {
		t.slab = append(t.slab, new([tapeChunk]tapeNode))
	}
	t.used++
	return &t.slab[c][i]
}

// reset clears t for its next recording: it holds no tensor afterwards.
func (t *tape) reset() {
	for c := 0; c*tapeChunk < t.used; c++ {
		clear(t.slab[c][:min(t.used-c*tapeChunk, tapeChunk)])
	}
	t.used = 0
	if len(t.slab) > maxTapeNodes/tapeChunk {
		clear(t.slab[maxTapeNodes/tapeChunk:])
		t.slab = t.slab[:maxTapeNodes/tapeChunk]
	}
	t.nodes = clearSlice(t.nodes)
	t.xs, t.grads, t.keep, t.dys = clearSlice(t.xs), clearSlice(t.grads), clearSlice(t.keep), clearSlice(t.dys)
	t.watchedIn = clearSlice(t.watchedIn)
	if len(t.watched) > maxTapeNodes || len(t.accum) > maxTapeNodes {
		t.watched, t.accum = map[int64]bool{}, map[int64]*tensor.Tensor{}
	}
	clear(t.watched)
	clear(t.accum)
}

// clearSlice zeroes s up to its capacity (a scratch slice may end shorter
// than it once was) and returns it empty, or nil once it has grown past
// what a recycled tape keeps.
func clearSlice[E any](s []E) []E {
	if cap(s) > maxTapeNodes {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// takeTape hands out one of the engine's spare tapes, or a new one.
func (e *Engine) takeTape() *tape {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.freeTapes); n > 0 {
		t := e.freeTapes[n-1]
		e.freeTapes = e.freeTapes[:n-1]
		return t
	}
	return &tape{watched: map[int64]bool{}, accum: map[int64]*tensor.Tensor{}}
}

// releaseTape clears t and keeps it for the next takeTape. It runs on
// the way out of a gradient computation, a panicking one too.
func (e *Engine) releaseTape(t *tape) {
	t.reset()
	e.mu.Lock()
	e.freeTapes = append(e.freeTapes, t)
	e.mu.Unlock()
}

// record adds a node for one kernel execution to every active tape that
// watches one of inputs, writing it only once a tape keeps it: with no tape
// recording, or none watching, an op costs a lock and a lookup per tape.
// The node copies inputs and outputs, so the caller's slices are not
// kept. Nested tapes (higher-order gradients) each need their own view of
// the forward pass: an op executed inside an inner gradient scope may still
// be a function of an outer tape's watched tensors.
func (e *Engine) record(kernel string, attrs kernels.Attrs, gradFn GradFunc, inputs []*tensor.Tensor, outputs ...*tensor.Tensor) {
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
			// e.tapes is outermost first: the first tape keeping the node
			// owns it.
			node = t.alloc()
			node.kernel, node.attrs, node.gradFn = kernel, attrs, gradFn
			node.inputs = append(node.in[:0], inputs...)
			node.outputs = append(node.out[:0], outputs...)
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
	t := e.takeTape()
	defer e.releaseTape(t)
	t.xs = append(t.xs, xs...)
	value := e.runTape(t, f, dy)
	return GradResult{Value: value, Grads: slices.Clone(t.grads)}
}

// runTape records f on t, which watches t.xs, and walks the tape back from
// f's value, seeded with dy (1 for a scalar value when dy is nil): t.grads
// then holds d(f)/d(x) for each x of t.xs, nil for a nil x. It disposes the
// intermediates of both passes; the value and the gradients survive in the
// caller's scope, unless f or a gradient function panics: then nothing
// does.
func (e *Engine) runTape(t *tape, f func() *tensor.Tensor, dy *tensor.Tensor) *tensor.Tensor {
	e.StartScope("gradients")
	var y *tensor.Tensor
	done := false
	defer func() {
		if done {
			t.keep = append(append(t.keep, y), t.grads...)
		}
		e.EndScope(t.keep)
	}()

	for _, x := range t.xs {
		if x != nil {
			t.watched[x.ID] = true
		}
	}
	e.mu.Lock()
	e.tapes = append(e.tapes, t)
	e.gradDepth++
	e.mu.Unlock()

	y = func() *tensor.Tensor {
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

	seed := dy
	if seed == nil {
		if y.Size() != 1 {
			opPanic("Gradients", fmt.Errorf("function must return a scalar when dy is nil; got shape %v", y.Shape))
		}
		seed = e.RunKernel("Fill", nil, kernels.Attrs{Shape: tensor.CopyShape(y.Shape), Value: 1.0})
	} else if !tensor.ShapesEqual(seed.Shape, y.Shape) {
		opPanic("Gradients", fmt.Errorf("dy shape %v does not match value shape %v", seed.Shape, y.Shape))
	}

	e.backprop(t, y, seed)
	for _, x := range t.xs {
		var g *tensor.Tensor
		if x != nil {
			if g = t.accum[x.ID]; g == nil {
				g = e.RunKernel("Fill", nil, kernels.Attrs{Shape: tensor.CopyShape(x.Shape), Value: 0.0})
			}
		}
		t.grads = append(t.grads, g)
	}
	done = true
	return y
}

// backprop walks the tape in reverse, summing gradients per tensor id into
// t.accum.
func (e *Engine) backprop(t *tape, y, seed *tensor.Tensor) {
	t.accum[y.ID] = seed
	for i := len(t.nodes) - 1; i >= 0; i-- {
		node := t.nodes[i]
		dys := t.dys[:0]
		any := false
		for _, out := range node.outputs {
			g := t.accum[out.ID]
			any = any || g != nil
			dys = append(dys, g)
		}
		t.dys = dys
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
			watched := t.watchedIn[:0]
			for _, in := range node.inputs {
				watched = append(watched, t.watched[in.ID])
			}
			t.watchedIn = watched
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
			if prev, ok := t.accum[in.ID]; ok {
				t.accum[in.ID] = e.RunKernel("Add", []*tensor.Tensor{prev, g}, kernels.Attrs{})
			} else {
				t.accum[in.ID] = g
			}
		}
	}
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
	e.record(name, kernels.Attrs{}, gradFn, inputs, outs...)
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
