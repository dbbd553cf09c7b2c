package kernels

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Adam's update as two fused kernels per variable, the form TensorFlow
// ships its optimizers in (training ops, TensorFlow whitepaper §4.1): the
// optimizer keeps a variable's first and second moments in one slot of
// shape [2, ...shape], m then v, and a step is
//
//	mv' = AdamMoments(mv, g)   attrs beta1, beta2
//	x'  = ApplyAdam(x, mv')    attrs learningRate, beta1Power, beta2Power, epsilon
//
// Each value goes through the float32 operations the eager op chain did —
// Mul, Square, Add for the moments; RealDiv, RealDiv, Mul, Sqrt, Add,
// RealDiv, Sub for the update — in the chain's order, each rounded, with
// the scalar operands rounded from float64 as the chain's uploaded scalars
// were. So a fused step is Float32bits-equal to the chain's.

// AdamMomentsAttrs decodes AdamMoments' attributes into the coefficients
// every tier computes with: beta1, 1-beta1, beta2 and 1-beta2, each
// difference taken in float64 and rounded once.
func AdamMomentsAttrs(attrs Attrs) (beta1, c1, beta2, c2 float32) {
	b1, b2 := attrs.Float("beta1", 0.9), attrs.Float("beta2", 0.999)
	return float32(b1), float32(1 - b1), float32(b2), float32(1 - b2)
}

// ApplyAdamAttrs decodes ApplyAdam's attributes: the learning rate, the
// two bias corrections 1-beta1^t and 1-beta2^t (from beta1Power = beta1^t
// and beta2Power = beta2^t) and epsilon.
func ApplyAdamAttrs(attrs Attrs) (lr, corr1, corr2, eps float32) {
	return float32(attrs.Float("learningRate", 0.001)),
		float32(1 - attrs.Float("beta1Power", 0.9)),
		float32(1 - attrs.Float("beta2Power", 0.999)),
		float32(attrs.Float("epsilon", 1e-8))
}

// CheckAdamSlot reports an error unless slot is [2, ...shape]: a
// variable's moments, m then v.
func CheckAdamSlot(kernel string, slot, shape []int) error {
	if len(slot) != len(shape)+1 || slot[0] != 2 || !tensor.ShapesEqual(slot[1:], shape) {
		return fmt.Errorf("kernel %s: moments slot shape %v is not [2, %v...]", kernel, slot, shape)
	}
	return nil
}

func init() {
	RegisterRef("AdamMoments", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("AdamMoments", inputs, 2); err != nil {
			return Buffer{}, err
		}
		mv, g := inputs[0], inputs[1]
		if err := CheckAdamSlot("AdamMoments", mv.Shape, g.Shape); err != nil {
			return Buffer{}, err
		}
		beta1, c1, beta2, c2 := AdamMomentsAttrs(attrs)
		n := len(g.Data)
		out := NewBuffer(mv.Shape, tensor.Float32)
		m, v := out.Data[:n], out.Data[n:]
		for i, gv := range g.Data {
			m[i] = float32(mv.Data[i]*beta1) + float32(gv*c1)
			v[i] = float32(mv.Data[n+i]*beta2) + float32(float32(gv*gv)*c2)
		}
		return out, nil
	})

	RegisterRef("ApplyAdam", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("ApplyAdam", inputs, 2); err != nil {
			return Buffer{}, err
		}
		x, mv := inputs[0], inputs[1]
		if err := CheckAdamSlot("ApplyAdam", mv.Shape, x.Shape); err != nil {
			return Buffer{}, err
		}
		lr, corr1, corr2, eps := ApplyAdamAttrs(attrs)
		n := len(x.Data)
		out := NewBuffer(x.Shape, tensor.Float32)
		for i, xv := range x.Data {
			mHat := mv.Data[i] / corr1
			num := mHat * lr
			den := float32(math.Sqrt(float64(mv.Data[n+i]/corr2))) + eps
			out.Data[i] = xv - num/den
		}
		return out, nil
	})
}
