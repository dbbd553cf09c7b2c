package native

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// TestBinaryBroadcastBitIdenticalToReference: Add/Sub/Mul/RealDiv agree
// with the reference kernel to the bit on equal shapes, on the suffix
// broadcast the native row loop takes (either operand the row, so operand
// order is seen to be preserved: Sub and RealDiv do not commute) and on
// the broadcasts that still fall back.
func TestBinaryBroadcastBitIdenticalToReference(t *testing.T) {
	backends := []*Backend{New(), New()}
	backends[0].SetWorkers(1)
	backends[1].SetWorkers(4)
	for _, c := range []struct {
		a, x   []int
		suffix bool // the native row loop runs it
	}{
		{[]int{2, 3, 5}, []int{2, 3, 5}, true},
		{[]int{2, 3, 5}, []int{5}, true},
		{[]int{2, 3, 5}, []int{1, 5}, true},
		{[]int{2, 3, 5}, []int{3, 5}, true},
		{[]int{2, 3, 5}, []int{}, true},
		{[]int{2, 3, 5}, []int{1}, true},
		{[]int{4, 5}, []int{1, 1, 5}, true}, // output gains the row's rank
		{[]int{5}, []int{1, 5}, true},
		{[]int{1}, []int{}, true},
		{[]int{4, 1}, []int{1}, true},
		{[]int{0, 5}, []int{5}, true},
		{[]int{3, 0}, []int{0}, true},
		{[]int{0}, []int{}, true},
		{[]int{4, 5}, []int{4, 1}, false},
		{[]int{2, 3, 5}, []int{3, 1}, false},
		{[]int{4, 1}, []int{5}, false},
		{[]int{2, 1, 5}, []int{3, 5}, false},
		{[]int{4, 5}, []int{4}, false}, // not broadcastable: both reject
	} {
		if got := tensor.ShapesEqual(c.a, c.x) || isSuffixShape(c.x, c.a) || isSuffixShape(c.a, c.x); got != c.suffix {
			t.Errorf("%v with %v: native path = %v, want %v", c.a, c.x, got, c.suffix)
		}
		for _, name := range []string{"Add", "Sub", "Mul", "RealDiv"} {
			for _, nb := range backends {
				for _, f := range gradFills {
					a := operand{f.gen(tensor.ShapeSize(c.a), 6), c.a}
					x := operand{f.gen(tensor.ShapeSize(c.x), 7), c.x}
					checkAgainstReference(t, nb, fmt.Sprintf("%s/%v,%v/%s", name, c.a, c.x, f.name), name, nil, a, x)
					checkAgainstReference(t, nb, fmt.Sprintf("%s/%v,%v/%s", name, c.x, c.a, f.name), name, nil, x, a)
				}
			}
		}
	}
	// Large enough that parallelFor splits both the flat and the row form.
	nb := backends[1]
	big := operand{vecOperand(64*1024*3, 8), []int{64, 1024, 3}}
	for _, row := range []operand{{vecOperand(3, 9), []int{3}}, {[]float32{-0.5}, nil}, {vecOperand(1024*3, 10), []int{1024, 3}}} {
		checkAgainstReference(t, nb, "Sub/big,row", "Sub", nil, big, row)
		checkAgainstReference(t, nb, "RealDiv/row,big", "RealDiv", nil, row, big)
	}
}

// TestActivationLoopsBitIdenticalToReference: the slice-loop Relu, Relu6
// and Step keep the reference's edge semantics — Relu sends NaN and -0 to
// +0, Relu6 passes both through, Step passes NaN through and gives alpha
// to everything not above zero.
func TestActivationLoopsBitIdenticalToReference(t *testing.T) {
	nb := New()
	nb.SetWorkers(4)
	x := operand{append(vecOperand(50_000, 11), vecSpecials...), nil}
	x.shape = []int{len(x.vals)}
	checkAgainstReference(t, nb, "Relu", "Relu", nil, x)
	checkAgainstReference(t, nb, "Relu6", "Relu6", nil, x)
	checkAgainstReference(t, nb, "Step", "Step", nil, x)
	checkAgainstReference(t, nb, "Step/alpha", "Step", kernels.Attrs{"alpha": 0.2}, x)
	checkAgainstReference(t, nb, "Step/empty", "Step", nil, operand{nil, []int{0, 3}})
	checkAgainstReference(t, nb, "Step/no input", "Step", nil)

	// requireSameFloats lets any NaN match any NaN; Step's contract is
	// that the very same NaN comes out.
	nan := math.Float32frombits(0x7fc12345)
	in := benchInput(nb, []float32{nan, -1, 2}, 3)
	var out kernels.TensorInfo
	if err := nb.table["Step"]([]kernels.Input{in}, kernels.Attrs{"alpha": -3.0}, &out); err != nil {
		t.Fatal(err)
	}
	got := nb.Raw(out.DataID)
	if math.Float32bits(got[0]) != 0x7fc12345 || got[1] != -3 || got[2] != 1 {
		t.Fatalf("Step([NaN(0x7fc12345), -1, 2], alpha=-3) = %v (NaN bits %#x)", got, math.Float32bits(got[0]))
	}
}

// TestBatchNormBitIdenticalToReference: FusedBatchNorm with [C] statistics
// runs vec's normalise row and agrees with the reference kernel to the bit
// — the same subtract, divide, multiply and add per value, where the
// kernel it replaced folded them into x·(scale/sd) + (offset − mean·scale/sd)
// — for channel counts under, at and over a vector step and wider than
// the row's √(variance+ε) tile, on every forward-kernel fill (NaN, ±Inf, ±0
// and denormals among them) with the variances as filled (negative ones
// normalise to NaN) and made non-negative, at every worker count and with
// the AVX2 cores on or off. An empty channel axis falls back to the
// reference kernel (it divided by zero).
func TestBatchNormBitIdenticalToReference(t *testing.T) {
	check := func(t *testing.T, nb *Backend) {
		attrs := kernels.Attrs{"varianceEpsilon": 1e-3}
		for _, f := range forwardFills {
			for _, c := range []int{1, 7, 8, 9, 32, 300} {
				for _, shape := range [][]int{{2, 3, 5, c}, {c}} {
					for _, nonNegative := range []bool{false, true} {
						x := operand{f.gen(tensor.ShapeSize(shape), 1), shape}
						p := make([]operand, 4) // mean, variance, offset, scale
						for i := range p {
							p[i] = operand{f.gen(c, uint32(i)+2), []int{c}}
						}
						if nonNegative {
							for i, v := range p[1].vals {
								p[1].vals[i] = float32(math.Abs(float64(v)))
							}
						}
						label := fmt.Sprintf("FusedBatchNorm/%v/%s/nonNegative=%v", shape, f.name, nonNegative)
						checkAgainstReference(t, nb, label, "FusedBatchNorm", attrs, x, p[0], p[1], p[2], p[3])
					}
				}
			}
		}
		// Large enough that parallelFor splits it.
		x := operand{vecOperand(4*24*24*32, 3), []int{4, 24, 24, 32}}
		p := operand{vecOperand(32, 4), []int{32}}
		checkAgainstReference(t, nb, "FusedBatchNorm/4x24x24x32", "FusedBatchNorm", attrs, x, p, p, p, p)
		empty := operand{nil, []int{0}}
		checkAgainstReference(t, nb, "FusedBatchNorm/empty channels", "FusedBatchNorm", attrs, operand{nil, []int{2, 0}}, empty, empty, empty, empty)
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
