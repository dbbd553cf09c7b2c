package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

var variableCounter atomic.Int64

// Variable is a mutable tensor container used for model weights. Variables
// live outside tidy scopes — they persist until Dispose is called — and are
// the tensors watched by VariableGrads during training (Section 3.5).
type Variable struct {
	// Name identifies the variable (unique per process unless provided).
	Name string
	// Trainable marks whether optimizers should update this variable.
	Trainable bool

	engine *Engine
	mu     sync.Mutex
	val    *tensor.Tensor
}

// NewVariable creates a variable initialized to a copy of initial's handle.
// The variable's value is detached from any tidy scope. If name is empty a
// unique one is generated.
func (e *Engine) NewVariable(initial *tensor.Tensor, name string, trainable bool) *Variable {
	if name == "" {
		name = fmt.Sprintf("variable_%d", variableCounter.Add(1))
	}
	v := &Variable{Name: name, Trainable: trainable, engine: e}
	v.val = e.detachedClone(initial)
	return v
}

// detachedClone returns a tensor sharing t's data container but tracked by
// no tidy scope, so it survives scope teardown.
func (e *Engine) detachedClone(t *tensor.Tensor) *tensor.Tensor {
	e.mu.Lock()
	entry, ok := e.data[t.DataID]
	if !ok {
		e.mu.Unlock()
		opPanic("Variable", fmt.Errorf("tensor %d has no data (already disposed?)", t.ID))
	}
	out := tensor.New(t.DataID, t.Shape, t.DType)
	if !e.isGlobalEngine {
		out.SetOwner(e)
	}
	entry.refCount++
	e.data[t.DataID] = entry
	e.numTensors++
	e.mu.Unlock()
	return out
}

// Value returns the variable's current tensor. Callers must not dispose it;
// it is owned by the variable.
func (v *Variable) Value() *tensor.Tensor {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val == nil {
		opPanic("Variable", fmt.Errorf("variable %q is disposed", v.Name))
	}
	return v.val
}

// Shape returns the variable's shape.
func (v *Variable) Shape() []int { return v.Value().Shape }

// Assign replaces the variable's value. The new value must match the
// current shape and dtype. The previous value's reference is released; the
// assigned tensor itself remains owned by the caller (or its tidy scope).
func (v *Variable) Assign(newVal *tensor.Tensor) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val == nil {
		opPanic("Variable", fmt.Errorf("variable %q is disposed", v.Name))
	}
	if !tensor.ShapesEqual(v.val.Shape, newVal.Shape) {
		opPanic("Variable", fmt.Errorf("assign shape %v does not match variable %q shape %v",
			newVal.Shape, v.Name, v.val.Shape))
	}
	if v.val.DType != newVal.DType {
		opPanic("Variable", fmt.Errorf("assign dtype %v does not match variable %q dtype %v",
			newVal.DType, v.Name, v.val.DType))
	}
	old := v.val
	v.val = v.engine.detachedClone(newVal)
	old.Dispose()
}

// Dispose releases the variable's value.
func (v *Variable) Dispose() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val != nil {
		v.val.Dispose()
		v.val = nil
	}
}

// Disposed reports whether the variable has been disposed.
func (v *Variable) Disposed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.val == nil
}

// VariableGradsResult carries a loss value and per-variable gradients.
type VariableGradsResult struct {
	Value *tensor.Tensor
	Grads map[*Variable]*tensor.Tensor
}

// VariableGrads computes d(f)/d(v) for every trainable variable in vars
// (all trainable variables an optimizer tracks). f must return a scalar
// loss.
func (e *Engine) VariableGrads(f func() *tensor.Tensor, vars []*Variable) VariableGradsResult {
	out := VariableGradsResult{Grads: map[*Variable]*tensor.Tensor{}}
	out.Value = e.ApplyVariableGrads(f, vars, func(vars []*Variable, grads []*tensor.Tensor) {
		for i, v := range vars {
			if grads[i] != nil {
				out.Grads[v] = grads[i]
			}
		}
	})
	return out
}

// ApplyVariableGrads is VariableGrads handing the gradients to apply, in
// the order of vars: grads[i] is d(f)/d(vars[i]), nil for a variable that
// is not trainable. apply runs after the gradient scope has closed, in the
// caller's, and returns before the tape is cleared: grads is the tape's
// and must not be kept. The value of f is returned. A training step
// through it allocates nothing of its own: the tape, its slices and its
// maps are the engine's, recycled from the last step.
func (e *Engine) ApplyVariableGrads(f func() *tensor.Tensor, vars []*Variable, apply func(vars []*Variable, grads []*tensor.Tensor)) *tensor.Tensor {
	t := e.takeTape()
	defer e.releaseTape(t)
	trainable := false
	for _, v := range vars {
		var x *tensor.Tensor
		if v.Trainable {
			x, trainable = v.Value(), true
		}
		t.xs = append(t.xs, x)
	}
	if !trainable {
		opPanic("VariableGrads", fmt.Errorf("no trainable variables"))
	}
	value := e.runTape(t, f, nil)
	apply(vars, t.grads)
	return value
}
