package native

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// adamAttrs are AdamMoments' and ApplyAdam's attributes with the default
// betas, and adamCorr ApplyAdam's bias corrections at Adam's third step.
var (
	adamAttrs = [2]kernels.Attrs{
		{Beta1: 0.9, Beta2: 0.999},
		{LearningRate: 0.01, Epsilon: 1e-8},
	}
	adamCorr = operand{kernels.AdamCorrections(0.9, 0.999, 3), []int{2}}
)

// checkAdam runs AdamMoments and ApplyAdam on a variable of the given shape
// against the reference kernels, every operand from f; the second moments
// are the fill's magnitudes in one pass and as filled (negative ones
// normalise to NaN) in the other.
func checkAdam(t *testing.T, nb *Backend, shape []int, f fill) {
	t.Helper()
	n := tensor.ShapeSize(shape)
	slot := append([]int{2}, shape...)
	x := operand{f.gen(n, 1), shape}
	g := operand{f.gen(n, 2), shape}
	for _, nonNegative := range []bool{false, true} {
		mv := operand{f.gen(2*n, 3), slot}
		if nonNegative {
			for i, v := range mv.vals[n:] {
				mv.vals[n+i] = float32(math.Abs(float64(v)))
			}
		}
		label := fmt.Sprintf("%v/%s/nonNegative=%v", shape, f.name, nonNegative)
		checkAgainstReference(t, nb, "AdamMoments/"+label, "AdamMoments", adamAttrs[0], mv, g)
		checkAgainstReference(t, nb, "ApplyAdam/"+label, "ApplyAdam", adamAttrs[1], x, mv, adamCorr)
	}
}

// TestAdamKernelsBitIdenticalToReference: Adam's two fused kernels on node
// agree with the reference kernels to the bit — a scalar, a bias, the bench
// convnet's kernels and one large enough that parallelFor cuts the slot
// mid-moment — on every forward-kernel fill (NaN, ±Inf, ±0, denormals), at
// every worker count and with the AVX2 cores on or off; and a malformed
// call is rejected as the reference rejects it.
func TestAdamKernelsBitIdenticalToReference(t *testing.T) {
	check := func(t *testing.T, nb *Backend) {
		for _, f := range forwardFills {
			for _, shape := range [][]int{{}, {0}, {8}, {3, 3, 1, 8}, {3, 3, 8, 16}, {256, 10}, {64, 1031}} {
				checkAdam(t, nb, shape, f)
			}
		}
		x := operand{make([]float32, 6), []int{2, 3}}
		for _, bad := range []operand{{make([]float32, 6), []int{6}}, {make([]float32, 12), []int{3, 2, 2}}, {make([]float32, 18), []int{3, 2, 3}}} {
			checkAgainstReference(t, nb, fmt.Sprintf("AdamMoments/slot %v", bad.shape), "AdamMoments", adamAttrs[0], bad, x)
			checkAgainstReference(t, nb, fmt.Sprintf("ApplyAdam/slot %v", bad.shape), "ApplyAdam", adamAttrs[1], x, bad, adamCorr)
		}
		checkAgainstReference(t, nb, "AdamMoments/one input", "AdamMoments", adamAttrs[0], x)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			nb := New()
			nb.SetWorkers(workers)
			check(t, nb)
		})
	}
	t.Run("scalar", func(t *testing.T) {
		restore, _ := vec.ForceScalar()
		defer restore()
		nb := New()
		nb.SetWorkers(4)
		check(t, nb)
	})
}
