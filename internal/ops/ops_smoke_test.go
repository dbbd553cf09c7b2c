package ops

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/native"
	"repro/internal/tensor"
)

func init() {
	core.Global().RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	core.Global().RegisterBackend("node", func() (kernels.Backend, error) { return native.New(), nil })
}

func almostEqual(t *testing.T, got []float32, want []float32, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > tol {
			t.Fatalf("element %d: got %g want %g (full: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestSmokeAddMatMul(t *testing.T) {
	a := FromValues([]float32{1, 2, 3, 4}, 2, 2)
	b := FromValues([]float32{5, 6, 7, 8}, 2, 2)
	sum := Add(a, b)
	almostEqual(t, sum.DataSync(), []float32{6, 8, 10, 12}, 0)
	mm := MatMul(a, b, false, false)
	almostEqual(t, mm.DataSync(), []float32{19, 22, 43, 50}, 0)
}

func TestSmokeReduce(t *testing.T) {
	x := FromValues([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	almostEqual(t, Sum(x, nil, false).DataSync(), []float32{21}, 0)
	almostEqual(t, Sum(x, []int{0}, false).DataSync(), []float32{5, 7, 9}, 0)
	almostEqual(t, Sum(x, []int{1}, false).DataSync(), []float32{6, 15}, 0)
	almostEqual(t, Mean(x, []int{1}, false).DataSync(), []float32{2, 5}, 1e-6)
	almostEqual(t, ArgMax(x, 1).DataSync(), []float32{2, 2}, 0)
}

func TestSmokeGradients(t *testing.T) {
	e := core.Global()
	x := FromValues([]float32{3}, 1)
	// y = x^2 + 2x -> dy/dx = 2x + 2 = 8 at x=3.
	res := e.Gradients(func() *tensor.Tensor {
		y := Add(Square(x), MulScalar(x, 2))
		return Reshape(y)
	}, []*tensor.Tensor{x}, nil)
	almostEqual(t, res.Value.DataSync(), []float32{15}, 1e-5)
	almostEqual(t, res.Grads[0].DataSync(), []float32{8}, 1e-5)
}

func TestSmokeMatMulGrad(t *testing.T) {
	e := core.Global()
	a := FromValues([]float32{1, 2, 3, 4}, 2, 2)
	b := FromValues([]float32{5, 6, 7, 8}, 2, 2)
	res := e.Gradients(func() *tensor.Tensor {
		return Sum(MatMul(a, b, false, false), nil, false)
	}, []*tensor.Tensor{a, b}, nil)
	// d(sum(AB))/dA = ones.B^T ; rows of B sum: [11, 15].
	almostEqual(t, res.Grads[0].DataSync(), []float32{11, 15, 11, 15}, 1e-5)
	// d(sum(AB))/dB = A^T.ones ; cols of A sum: [4, 6].
	almostEqual(t, res.Grads[1].DataSync(), []float32{4, 4, 6, 6}, 1e-5)
}

func TestSmokeTidy(t *testing.T) {
	e := core.Global()
	before := e.NumTensors()
	var kept *tensor.Tensor
	e.Tidy("test", func() []*tensor.Tensor {
		a := FromValues([]float32{1, 2}, 2)
		b := Add(a, a)
		c := Mul(b, b)
		kept = c
		return []*tensor.Tensor{c}
	})
	after := e.NumTensors()
	if after != before+1 {
		t.Fatalf("tidy leaked: before=%d after=%d (want +1 for returned tensor)", before, after)
	}
	almostEqual(t, kept.DataSync(), []float32{4, 16}, 0)
	kept.Dispose()
	if e.NumTensors() != before {
		t.Fatalf("dispose did not restore count: %d vs %d", e.NumTensors(), before)
	}
}

func TestSmokeConv(t *testing.T) {
	// 1x3x3x1 input, 2x2x1x1 filter of ones, valid, stride 1 -> 2x2 sums.
	x := FromValues([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3, 1)
	w := Ones(2, 2, 1, 1)
	y := Conv2D(x, w, ConvOpts{})
	almostEqual(t, y.DataSync(), []float32{12, 16, 24, 28}, 0)
	if !tensor.ShapesEqual(y.Shape, []int{1, 2, 2, 1}) {
		t.Fatalf("bad conv shape %v", y.Shape)
	}
}
