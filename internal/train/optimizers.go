// Package train provides optimizers, loss functions and metrics — the
// training machinery behind model.compile()/model.fit() in the Layers API
// (Section 3.2) and tf.train.* in the Ops API.
package train

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Optimizer updates variables from gradients. Implementations hold their
// slot state (momenta, accumulators) in non-trainable variables so repeated
// Minimize calls never leak tensors.
type Optimizer interface {
	// Name identifies the optimizer in serialized configs ("sgd", "adam").
	Name() string
	// ApplyGradients applies one update step, to the variables in the
	// order given.
	ApplyGradients(grads []VarGrad)
	// Dispose releases slot variables.
	Dispose()
}

// VarGrad is a variable and its gradient: ApplyGradients takes a list of
// them, as TensorFlow's apply_gradients takes (gradient, variable) pairs,
// so an update visits the variables in one fixed order.
type VarGrad struct {
	Var  *core.Variable
	Grad *tensor.Tensor
}

// Minimize computes gradients of f with respect to vars and applies them,
// in the order of vars, returning the loss value. It is the
// optimizer.minimize() of the paper's training loop; all intermediates are
// tidied away (Section 3.7: "model.fit ... internally manage memory").
func Minimize(opt Optimizer, f func() *tensor.Tensor, vars []*core.Variable) *tensor.Tensor {
	e := core.Global()
	outs := e.Tidy("minimize", func() []*tensor.Tensor {
		res := e.VariableGrads(f, vars)
		grads := make([]VarGrad, 0, len(res.Grads))
		for _, v := range vars {
			if g, ok := res.Grads[v]; ok {
				grads = append(grads, VarGrad{v, g})
			}
		}
		opt.ApplyGradients(grads)
		return []*tensor.Tensor{res.Value}
	})
	return outs[0]
}

// slotMap lazily creates one zero-initialized slot variable per model
// variable.
type slotMap map[*core.Variable]*core.Variable

// get returns v's slot, creating it on first use: zeros shaped like v, or,
// for copies > 1, like [copies, ...v's shape].
func (s slotMap) get(v *core.Variable, name string, copies int) *core.Variable {
	if slot, ok := s[v]; ok {
		return slot
	}
	e := core.Global()
	shape := v.Shape()
	if copies > 1 {
		shape = append([]int{copies}, shape...)
	}
	zeros := ops.Zeros(shape...)
	slot := e.NewVariable(zeros, v.Name+"/"+name, false)
	zeros.Dispose()
	s[v] = slot
	return slot
}

func (s slotMap) dispose() {
	for _, v := range s {
		v.Dispose()
	}
}

// SGD is plain stochastic gradient descent: v -= lr * g.
type SGD struct {
	LearningRate float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr float64) *SGD { return &SGD{LearningRate: lr} }

// Name implements Optimizer.
func (o *SGD) Name() string { return "sgd" }

// ApplyGradients implements Optimizer.
func (o *SGD) ApplyGradients(grads []VarGrad) {
	e := core.Global()
	e.Tidy("sgd", func() []*tensor.Tensor {
		for _, vg := range grads {
			v, g := vg.Var, vg.Grad
			v.Assign(ops.Sub(v.Value(), ops.MulScalar(g, float32(o.LearningRate))))
		}
		return nil
	})
}

// Dispose implements Optimizer.
func (o *SGD) Dispose() {}

// Momentum is SGD with (optionally Nesterov) momentum.
type Momentum struct {
	LearningRate float64
	MomentumRate float64
	Nesterov     bool

	accum slotMap
}

// NewMomentum returns a momentum optimizer.
func NewMomentum(lr, momentum float64, nesterov bool) *Momentum {
	return &Momentum{LearningRate: lr, MomentumRate: momentum, Nesterov: nesterov, accum: slotMap{}}
}

// Name implements Optimizer.
func (o *Momentum) Name() string { return "momentum" }

// ApplyGradients implements Optimizer.
func (o *Momentum) ApplyGradients(grads []VarGrad) {
	e := core.Global()
	e.Tidy("momentum", func() []*tensor.Tensor {
		for _, vg := range grads {
			v, g := vg.Var, vg.Grad
			m := o.accum.get(v, "momentum", 1)
			newM := ops.Add(ops.MulScalar(m.Value(), float32(o.MomentumRate)), g)
			m.Assign(newM)
			step := newM
			if o.Nesterov {
				step = ops.Add(g, ops.MulScalar(newM, float32(o.MomentumRate)))
			}
			v.Assign(ops.Sub(v.Value(), ops.MulScalar(step, float32(o.LearningRate))))
		}
		return nil
	})
}

// Dispose implements Optimizer.
func (o *Momentum) Dispose() { o.accum.dispose() }

// RMSProp keeps a decaying mean of squared gradients.
type RMSProp struct {
	LearningRate float64
	Decay        float64
	Epsilon      float64

	ms slotMap
}

// NewRMSProp returns an RMSProp optimizer.
func NewRMSProp(lr, decay, epsilon float64) *RMSProp {
	if epsilon == 0 {
		epsilon = 1e-7
	}
	return &RMSProp{LearningRate: lr, Decay: decay, Epsilon: epsilon, ms: slotMap{}}
}

// Name implements Optimizer.
func (o *RMSProp) Name() string { return "rmsprop" }

// ApplyGradients implements Optimizer.
func (o *RMSProp) ApplyGradients(grads []VarGrad) {
	e := core.Global()
	e.Tidy("rmsprop", func() []*tensor.Tensor {
		for _, vg := range grads {
			v, g := vg.Var, vg.Grad
			s := o.ms.get(v, "rms", 1)
			newS := ops.Add(
				ops.MulScalar(s.Value(), float32(o.Decay)),
				ops.MulScalar(ops.Square(g), float32(1-o.Decay)))
			s.Assign(newS)
			update := ops.Div(ops.MulScalar(g, float32(o.LearningRate)),
				ops.AddScalar(ops.Sqrt(newS), float32(o.Epsilon)))
			v.Assign(ops.Sub(v.Value(), update))
		}
		return nil
	})
}

// Dispose implements Optimizer.
func (o *RMSProp) Dispose() { o.ms.dispose() }

// Adagrad accumulates squared gradients without decay.
type Adagrad struct {
	LearningRate float64
	Epsilon      float64

	accum slotMap
}

// NewAdagrad returns an Adagrad optimizer.
func NewAdagrad(lr float64) *Adagrad {
	return &Adagrad{LearningRate: lr, Epsilon: 1e-7, accum: slotMap{}}
}

// Name implements Optimizer.
func (o *Adagrad) Name() string { return "adagrad" }

// ApplyGradients implements Optimizer.
func (o *Adagrad) ApplyGradients(grads []VarGrad) {
	e := core.Global()
	e.Tidy("adagrad", func() []*tensor.Tensor {
		for _, vg := range grads {
			v, g := vg.Var, vg.Grad
			s := o.accum.get(v, "accum", 1)
			newS := ops.Add(s.Value(), ops.Square(g))
			s.Assign(newS)
			update := ops.Div(ops.MulScalar(g, float32(o.LearningRate)),
				ops.AddScalar(ops.Sqrt(newS), float32(o.Epsilon)))
			v.Assign(ops.Sub(v.Value(), update))
		}
		return nil
	})
}

// Dispose implements Optimizer.
func (o *Adagrad) Dispose() { o.accum.dispose() }

// Adam implements the Adam optimizer with bias correction. A step is two
// fused kernels per variable (internal/kernels/adam.go): AdamMoments
// updates the variable's one [2, ...shape] slot of first and second
// moments, ApplyAdam the variable from it — each value through the same
// float32 operations, in the same order, as the fourteen-op eager chain
// (moments, bias corrections, square root, update) the kernels replace.
type Adam struct {
	LearningRate float64
	Beta1        float64
	Beta2        float64
	Epsilon      float64

	moments slotMap
	step    int
}

// NewAdam returns an Adam optimizer with the standard defaults when betas
// are zero.
func NewAdam(lr, beta1, beta2, epsilon float64) *Adam {
	if beta1 == 0 {
		beta1 = 0.9
	}
	if beta2 == 0 {
		beta2 = 0.999
	}
	if epsilon == 0 {
		epsilon = 1e-8
	}
	return &Adam{LearningRate: lr, Beta1: beta1, Beta2: beta2, Epsilon: epsilon, moments: slotMap{}}
}

// Name implements Optimizer.
func (o *Adam) Name() string { return "adam" }

// ApplyGradients implements Optimizer. The attributes are the same every
// step; what changes, the two bias corrections, is one [2] operand per step
// that every variable's ApplyAdam reads (kernels.AdamCorrections).
func (o *Adam) ApplyGradients(grads []VarGrad) {
	o.step++
	moments := kernels.Attrs{Beta1: o.Beta1, Beta2: o.Beta2}
	update := kernels.Attrs{LearningRate: o.LearningRate, Epsilon: o.Epsilon}
	e := core.Global()
	e.Tidy("adam", func() []*tensor.Tensor {
		corr := e.MakeTensor(kernels.AdamCorrections(o.Beta1, o.Beta2, o.step), []int{2}, tensor.Float32)
		for _, vg := range grads {
			slot := o.moments.get(vg.Var, "moments", 2)
			mv := e.RunKernel("AdamMoments", []*tensor.Tensor{slot.Value(), vg.Grad}, moments)
			slot.Assign(mv)
			vg.Var.Assign(e.RunKernel("ApplyAdam", []*tensor.Tensor{vg.Var.Value(), mv, corr}, update))
		}
		return nil
	})
}

// Dispose implements Optimizer.
func (o *Adam) Dispose() { o.moments.dispose() }

// NewOptimizer constructs an optimizer from a serialized name, as used by
// model.compile({optimizer: 'sgd'}) (Listing 1).
func NewOptimizer(name string, lr float64) (Optimizer, error) {
	if lr == 0 {
		lr = 0.01
	}
	switch name {
	case "sgd":
		return NewSGD(lr), nil
	case "momentum":
		return NewMomentum(lr, 0.9, false), nil
	case "rmsprop":
		return NewRMSProp(lr, 0.9, 0), nil
	case "adagrad":
		return NewAdagrad(lr), nil
	case "adam":
		return NewAdam(lr, 0, 0, 0), nil
	default:
		return nil, fmt.Errorf("train: unknown optimizer %q", name)
	}
}
