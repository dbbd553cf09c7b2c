package kernels

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// Adam's update as two fused kernels per variable, the form TensorFlow
// ships its optimizers in (training ops, TensorFlow whitepaper §4.1): the
// optimizer keeps a variable's first and second moments in one slot of
// shape [2, ...shape], m then v, and a step is
//
//	mv' = AdamMoments(mv, g)          attrs Beta1, Beta2
//	x'  = ApplyAdam(x, mv', corr)     attrs LearningRate, Epsilon
//
// corr is the step's [2] operand of bias corrections, 1-beta1^t and
// 1-beta2^t: a value that changes every step is an operand, not an
// attribute, so a step's calls keep the keys of the last step's (Memo).
// Each value goes through the float32 operations the eager op chain did —
// Mul, Square, Add for the moments; RealDiv, RealDiv, Mul, Sqrt, Add,
// RealDiv, Sub for the update — in the chain's order, each rounded, with
// the scalar operands rounded from float64 as the chain's uploaded scalars
// were (AdamCorrections). So a fused step is Float32bits-equal to the
// chain's.

// AdamMoments is a resolved AdamMoments call: the variable's size n and
// the coefficients every tier computes with, beta1, 1-beta1, beta2 and
// 1-beta2, each difference taken in float64 and rounded once.
type AdamMoments struct {
	n                    int
	beta1, c1, beta2, c2 float32
}

// ResolveAdamMoments checks an AdamMoments — inputs mv [2, ...shape] and g
// [...shape]; attrs Beta1 and Beta2.
func ResolveAdamMoments(inputs []Input, attrs Attrs, out *TensorInfo) (AdamMoments, error) {
	if err := adamSlot("AdamMoments", inputs, 0, out); err != nil {
		return AdamMoments{}, err
	}
	b1, b2 := attrs.Beta1, attrs.Beta2
	return AdamMoments{tensor.ShapeSize(inputs[1].Shape), float32(b1), float32(1 - b1), float32(b2), float32(1 - b2)}, nil
}

// Fill computes the slot values [lo, lo+len(dst)) of mv' into dst — a
// range that may begin in m and end in v (vec.AdamMoments).
func (a AdamMoments) Fill(mv, g []float32, lo int, dst []float32) {
	vec.AdamMoments(dst, mv, g[:a.n], lo, a.beta1, a.c1, a.beta2, a.c2)
}

// AdamCorrections is the operand of step t of an Adam optimizer with
// decay rates beta1 and beta2: its two bias corrections, 1-beta1^t and
// 1-beta2^t, each taken in float64 and rounded once.
func AdamCorrections(beta1, beta2 float64, t int) []float32 {
	return []float32{float32(1 - math.Pow(beta1, float64(t))), float32(1 - math.Pow(beta2, float64(t)))}
}

// ApplyAdam is a resolved ApplyAdam call: the variable's size n, the
// learning rate and epsilon.
type ApplyAdam struct {
	n       int
	lr, eps float32
}

// ResolveApplyAdam checks an ApplyAdam — inputs x [...shape], mv [2,
// ...shape] and the step's bias corrections corr [2] (AdamCorrections);
// attrs LearningRate and Epsilon.
func ResolveApplyAdam(inputs []Input, attrs Attrs, out *TensorInfo) (ApplyAdam, error) {
	if err := wantInputs("ApplyAdam", inputs, 3); err != nil {
		return ApplyAdam{}, err
	}
	if c := inputs[2]; len(c.Shape) != 1 || c.Shape[0] != 2 || c.DType != tensor.Float32 {
		return ApplyAdam{}, fmt.Errorf("kernel ApplyAdam: bias corrections %v %v are not float32 [2]", c.Shape, c.DType)
	}
	if err := adamSlot("ApplyAdam", inputs[:2], 1, out); err != nil {
		return ApplyAdam{}, err
	}
	return ApplyAdam{tensor.ShapeSize(inputs[0].Shape), float32(attrs.LearningRate), float32(attrs.Epsilon)}, nil
}

// Fill computes the variable values [lo, lo+len(dst)) of x' into dst
// (vec.AdamStep).
func (a ApplyAdam) Fill(x, mv, corr []float32, lo int, dst []float32) {
	hi := lo + len(dst)
	vec.AdamStep(dst, x[lo:hi], mv[lo:hi], mv[a.n+lo:a.n+hi], a.lr, corr[0], corr[1], a.eps)
}

// adamSlot checks an Adam kernel's two inputs, the moments slot
// inputs[slot] being [2, ...shape] for the other's shape — a variable's
// moments, m then v — and describes its float32 output, shaped as
// inputs[0], in out.
func adamSlot(kernel string, inputs []Input, slot int, out *TensorInfo) error {
	if err := wantInputs(kernel, inputs, 2); err != nil {
		return err
	}
	mv, shape := inputs[slot].Shape, inputs[1-slot].Shape
	if len(mv) != len(shape)+1 || mv[0] != 2 || !tensor.ShapesEqual(mv[1:], shape) {
		return fmt.Errorf("kernel %s: moments slot shape %v is not [2, %v...]", kernel, mv, shape)
	}
	out.Shape, out.DType = append(out.Shape[:0], inputs[0].Shape...), tensor.Float32
	return nil
}

// adamMomentsRef is AdamMoments' reference kernel.
func adamMomentsRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	a, err := ResolveAdamMoments(inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	mv, g, beta1, c1, beta2, c2 := inputs[0], inputs[1], a.beta1, a.c1, a.beta2, a.c2
	n := len(g.Data)
	out := NewBuffer(res.Shape, res.DType)
	m, v := out.Data[:n], out.Data[n:]
	for i, gv := range g.Data {
		m[i] = float32(mv.Data[i]*beta1) + float32(gv*c1)
		v[i] = float32(mv.Data[n+i]*beta2) + float32(float32(gv*gv)*c2)
	}
	return out, nil
}

// applyAdamRef is ApplyAdam's reference kernel.
func applyAdamRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	a, err := ResolveApplyAdam(inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	x, mv, lr, corr1, corr2, eps := inputs[0], inputs[1], a.lr, inputs[2].Data[0], inputs[2].Data[1], a.eps
	n := len(x.Data)
	out := NewBuffer(res.Shape, res.DType)
	for i, xv := range x.Data {
		mHat := mv.Data[i] / corr1
		num := mHat * lr
		den := float32(math.Sqrt(float64(mv.Data[n+i]/corr2))) + eps
		out.Data[i] = xv - num/den
	}
	return out, nil
}
