package ops

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// gradCheck compares the autodiff gradient of f with central finite
// differences at every input element. f must reduce to a scalar itself
// (most cases wrap the op in Sum).
func gradCheck(t *testing.T, name string, inShapes [][]int, f func(xs []*tensor.Tensor) *tensor.Tensor, makeInput func(i int, rng *rand.Rand, shape []int) []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	if makeInput == nil {
		makeInput = func(i int, rng *rand.Rand, shape []int) []float32 {
			vals := make([]float32, tensor.ShapeSize(shape))
			for j := range vals {
				vals[j] = float32(rng.NormFloat64())
			}
			return vals
		}
	}
	raw := make([][]float32, len(inShapes))
	for i, s := range inShapes {
		raw[i] = makeInput(i, rng, s)
	}
	e := core.Global()

	eval := func() float64 {
		var out float64
		e.Tidy("gradcheck-eval", func() []*tensor.Tensor {
			xs := make([]*tensor.Tensor, len(inShapes))
			for i, s := range inShapes {
				xs[i] = FromValues(raw[i], s...)
			}
			out = float64(f(xs).DataSync()[0])
			return nil
		})
		return out
	}

	// Analytic gradients.
	xs := make([]*tensor.Tensor, len(inShapes))
	for i, s := range inShapes {
		xs[i] = FromValues(raw[i], s...)
	}
	res := e.Gradients(func() *tensor.Tensor { return f(xs) }, xs, nil)
	analytic := make([][]float32, len(xs))
	for i, g := range res.Grads {
		analytic[i] = g.DataSync()
	}
	res.Value.Dispose()
	for _, g := range res.Grads {
		g.Dispose()
	}
	for _, x := range xs {
		x.Dispose()
	}

	const eps = 1e-2
	for i := range raw {
		for j := range raw[i] {
			orig := raw[i][j]
			raw[i][j] = orig + eps
			plus := eval()
			raw[i][j] = orig - eps
			minus := eval()
			raw[i][j] = orig
			numeric := (plus - minus) / (2 * eps)
			got := float64(analytic[i][j])
			if math.Abs(numeric-got) > 2e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s: input %d element %d: numeric %g vs autodiff %g", name, i, j, numeric, got)
			}
		}
	}
}

// onCPUAndNode runs check on the reference tier and on the node backend,
// whose conv, pool and matmul backward kernels are its own.
func onCPUAndNode(t *testing.T, check func(t *testing.T)) {
	e := core.Global()
	for _, backend := range []string{"cpu", "node"} {
		t.Run(backend, func(t *testing.T) {
			if err := e.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			defer e.SetBackend("cpu")
			check(t)
		})
	}
}

func positive(i int, rng *rand.Rand, shape []int) []float32 {
	vals := make([]float32, tensor.ShapeSize(shape))
	for j := range vals {
		vals[j] = float32(0.5 + rng.Float64()*2)
	}
	return vals
}

func TestGradAdd(t *testing.T) {
	gradCheck(t, "Add", [][]int{{2, 3}, {2, 3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Add(xs[0], xs[1]), nil, false)
	}, nil)
}

func TestGradAddBroadcast(t *testing.T) {
	gradCheck(t, "Add(broadcast)", [][]int{{2, 3}, {3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Mul(Add(xs[0], xs[1]), xs[0]), nil, false)
	}, nil)
}

func TestGradSubMulDiv(t *testing.T) {
	gradCheck(t, "SubMulDiv", [][]int{{2, 2}, {2, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Div(Mul(xs[0], xs[1]), Sub(AddScalar(Abs(xs[1]), 2), Scalar(0))), nil, false)
	}, nil)
}

func TestGradPow(t *testing.T) {
	gradCheck(t, "Pow", [][]int{{3}, {3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Pow(xs[0], xs[1]), nil, false)
	}, positive)
}

func TestGradMaximumMinimum(t *testing.T) {
	gradCheck(t, "MaxMin", [][]int{{4}, {4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Add(Maximum(xs[0], xs[1]), Minimum(xs[0], xs[1])), nil, false)
	}, nil)
}

func TestGradUnaryChain(t *testing.T) {
	gradCheck(t, "unary-chain", [][]int{{5}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Tanh(Sigmoid(Mul(xs[0], xs[0]))), nil, false)
	}, nil)
}

func TestGradExpLogSqrt(t *testing.T) {
	gradCheck(t, "exp-log-sqrt", [][]int{{4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Add(Log(xs[0]), Sqrt(xs[0])), nil, false)
	}, positive)
}

func TestGradRsqrtSquareReciprocal(t *testing.T) {
	gradCheck(t, "rsqrt", [][]int{{4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Add(Rsqrt(xs[0]), Add(Square(xs[0]), Reciprocal(xs[0]))), nil, false)
	}, positive)
}

func TestGradTrig(t *testing.T) {
	gradCheck(t, "trig", [][]int{{4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Add(Sin(xs[0]), Cos(xs[0])), nil, false)
	}, nil)
}

func TestGradSoftplusElu(t *testing.T) {
	gradCheck(t, "softplus-elu", [][]int{{5}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Add(Softplus(xs[0]), Elu(xs[0])), nil, false)
	}, nil)
}

func TestGradLeakyRelu(t *testing.T) {
	gradCheck(t, "leakyrelu", [][]int{{6}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(LeakyRelu(xs[0], 0.1), nil, false)
	}, nil)
}

func TestGradMatMul(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		gradCheck(t, "MatMul", [][]int{{3, 4}, {4, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(MatMul(xs[0], xs[1], false, false), nil, false)
		}, nil)
	})
}

func TestGradMatMulTransposed(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		gradCheck(t, "MatMul(tA)", [][]int{{4, 3}, {4, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(MatMul(xs[0], xs[1], true, false), nil, false)
		}, nil)
		gradCheck(t, "MatMul(tB)", [][]int{{3, 4}, {2, 4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(MatMul(xs[0], xs[1], false, true), nil, false)
		}, nil)
	})
}

func TestGradBatchMatMulBroadcast(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		gradCheck(t, "BatchMatMul", [][]int{{1, 2, 3}, {2, 3, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(BatchMatMul(xs[0], xs[1], false, false), nil, false)
		}, nil)
	})
}

func TestGradConv2D(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		gradCheck(t, "Conv2D", [][]int{{1, 5, 5, 2}, {3, 3, 2, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(Conv2D(xs[0], xs[1], ConvOpts{Strides: []int{2, 2}, Pad: "same"}), nil, false)
		}, nil)
	})
}

func TestGradDepthwiseConv2D(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		gradCheck(t, "Depthwise", [][]int{{1, 4, 4, 2}, {3, 3, 2, 1}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(DepthwiseConv2D(xs[0], xs[1], ConvOpts{Strides: []int{1, 1}, Pad: "same"}), nil, false)
		}, nil)
	})
}

func TestGradPools(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		// MaxPool grads are exact only away from ties; use distinct values.
		distinct := func(i int, rng *rand.Rand, shape []int) []float32 {
			vals := make([]float32, tensor.ShapeSize(shape))
			perm := rng.Perm(len(vals))
			for j := range vals {
				vals[j] = float32(perm[j]) * 0.37
			}
			return vals
		}
		gradCheck(t, "MaxPool", [][]int{{1, 4, 4, 1}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(MaxPool(xs[0], PoolOpts{FilterSize: []int{2, 2}, Strides: []int{2, 2}}), nil, false)
		}, distinct)
		gradCheck(t, "AvgPool", [][]int{{1, 4, 4, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(AvgPool(xs[0], PoolOpts{FilterSize: []int{2, 2}, Strides: []int{1, 1}, Pad: "same"}), nil, false)
		}, nil)
	})
}

func TestGradReductions(t *testing.T) {
	gradCheck(t, "Sum(axis)", [][]int{{2, 3, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Square(Sum(xs[0], []int{1}, false)), nil, false)
	}, nil)
	gradCheck(t, "Mean", [][]int{{3, 4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Square(Mean(xs[0], []int{0}, true)), nil, false)
	}, nil)
	distinct := func(i int, rng *rand.Rand, shape []int) []float32 {
		vals := make([]float32, tensor.ShapeSize(shape))
		perm := rng.Perm(len(vals))
		for j := range vals {
			vals[j] = float32(perm[j]) * 0.21
		}
		return vals
	}
	gradCheck(t, "Max", [][]int{{2, 5}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Max(xs[0], []int{1}, false), nil, false)
	}, distinct)
	gradCheck(t, "Min", [][]int{{2, 5}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Min(xs[0], []int{1}, false), nil, false)
	}, distinct)
	gradCheck(t, "Prod", [][]int{{2, 3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Prod(xs[0], []int{1}, false), nil, false)
	}, positive)
}

// TestGradBiasAddGrad: a sum over the leading axes is BiasAddGrad, whose
// gradient tiles dy over the summed rows.
func TestGradBiasAddGrad(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		gradCheck(t, "Sum(leading axes)", [][]int{{2, 3, 4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			return Sum(Square(Sum(xs[0], []int{0, 1}, false)), nil, false)
		}, nil)
		gradCheck(t, "Sum(leading axis, keepDims)", [][]int{{3, 5}}, func(xs []*tensor.Tensor) *tensor.Tensor {
			w := FromValues([]float32{1, -2, 3, 0.5, -1}, 1, 5)
			return Sum(Mul(Sum(xs[0], []int{0}, true), w), nil, false)
		}, nil)
	})
}

// TestSumOverLeadingAxesIsOneBiasAddGrad: ops.Sum over exactly the leading
// axes — every bias gradient — dispatches one BiasAddGrad and no
// Transpose, and its sums are Float32bits-equal to the Sum of the
// transposed tensor, which meets each column's values in the same order.
func TestSumOverLeadingAxesIsOneBiasAddGrad(t *testing.T) {
	onCPUAndNode(t, func(t *testing.T) {
		e := core.Global()
		e.Tidy("leading", func() []*tensor.Tensor {
			x := RandNormal([]int{4, 5, 6, 9}, 0, 1, rand.New(rand.NewSource(5)))
			var got *tensor.Tensor
			info := e.Profile(func() { got = Sum(x, []int{0, 1, 2}, false) })
			if len(info.Kernels) != 1 || info.Kernels[0].Name != "BiasAddGrad" {
				t.Errorf("Sum over [0 1 2] dispatched %v, want one BiasAddGrad", info.KernelNames())
			}
			want := Sum(Transpose(x, 3, 0, 1, 2), []int{1, 2, 3}, false).DataSync()
			for i, v := range got.DataSync() {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Errorf("column %d: %g, the transposed Sum gives %g", i, v, want[i])
				}
			}
			if kept := Sum(x, []int{0, 1}, true); !tensor.ShapesEqual(kept.Shape, []int{1, 1, 6, 9}) {
				t.Errorf("keepDims shape %v, want [1 1 6 9]", kept.Shape)
			}
			return nil
		})
	})
}

func TestGradSoftmaxAndLogSoftmax(t *testing.T) {
	gradCheck(t, "Softmax", [][]int{{2, 4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		// Weighted softmax output so the gradient is non-trivial.
		w := FromValues([]float32{1, -2, 3, 0.5, -1, 2, 0.1, 1}, 2, 4)
		return Sum(Mul(Softmax(xs[0]), w), nil, false)
	}, nil)
	gradCheck(t, "LogSoftmax", [][]int{{2, 3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		w := FromValues([]float32{1, 2, 3, -1, 0.5, 1}, 2, 3)
		return Sum(Mul(LogSoftmax(xs[0]), w), nil, false)
	}, nil)
}

func TestGradShapeOps(t *testing.T) {
	gradCheck(t, "Transpose", [][]int{{2, 3, 4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		w := RandNormal([]int{4, 2, 3}, 0, 1, rand.New(rand.NewSource(2)))
		return Sum(Mul(Transpose(xs[0], 2, 0, 1), w), nil, false)
	}, nil)
	gradCheck(t, "Concat", [][]int{{2, 2}, {2, 3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		c := Concat([]*tensor.Tensor{xs[0], xs[1]}, 1)
		return Sum(Square(c), nil, false)
	}, nil)
	gradCheck(t, "Slice", [][]int{{3, 4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Square(Slice(xs[0], []int{1, 0}, []int{2, 3})), nil, false)
	}, nil)
	gradCheck(t, "Pad", [][]int{{2, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Square(Pad(xs[0], [][2]int{{1, 0}, {0, 1}}, 0)), nil, false)
	}, nil)
	gradCheck(t, "Tile", [][]int{{2, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		w := RandNormal([]int{4, 6}, 0, 1, rand.New(rand.NewSource(3)))
		return Sum(Mul(Tile(xs[0], []int{2, 3}), w), nil, false)
	}, nil)
	gradCheck(t, "Reverse", [][]int{{2, 3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		w := RandNormal([]int{2, 3}, 0, 1, rand.New(rand.NewSource(4)))
		return Sum(Mul(Reverse(xs[0], 1), w), nil, false)
	}, nil)
	gradCheck(t, "Reshape", [][]int{{2, 6}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Square(Reshape(xs[0], 3, 4)), nil, false)
	}, nil)
	// A -1 dimension and a change of rank: the gradient reshapes dy back to
	// the input's own shape, and weighting the values shows a reshape to
	// any other shape of the same size.
	gradCheck(t, "Reshape-1", [][]int{{2, 6}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		w := RandNormal([]int{3, 2, 2}, 0, 1, rand.New(rand.NewSource(5)))
		return Sum(Reshape(Mul(Reshape(xs[0], 3, -1, 2), w), -1), nil, false)
	}, nil)
	gradCheck(t, "StackUnstack", [][]int{{2, 3}, {2, 3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		s := Stack(xs, 0)
		parts := Unstack(s, 0)
		return Sum(Mul(parts[0], parts[1]), nil, false)
	}, nil)
}

func TestGradGather(t *testing.T) {
	gradCheck(t, "Gather", [][]int{{4, 3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		idx := FromValuesTyped([]float32{2, 0, 2, 1}, []int{4}, tensor.Int32)
		return Sum(Square(Gather(xs[0], idx, 0)), nil, false)
	}, nil)
}

func TestGradWhere(t *testing.T) {
	gradCheck(t, "Where", [][]int{{4}, {4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		cond := Greater(xs[0], ZerosLike(xs[0]))
		return Sum(Where(cond, Mul(xs[0], xs[1]), Neg(xs[1])), nil, false)
	}, nil)
}

func TestGradBatchNorm(t *testing.T) {
	gradCheck(t, "BatchNorm", [][]int{{2, 3}, {3}, {3}, {3}, {3}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		variance := AddScalar(Square(xs[2]), 0.5) // keep positive
		return Sum(Square(BatchNorm(xs[0], xs[1], variance, xs[3], xs[4], 1e-3)), nil, false)
	}, nil)
}

func TestGradClip(t *testing.T) {
	gradCheck(t, "Clip", [][]int{{6}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(ClipByValue(Mul(xs[0], xs[0]), 0.2, 2.0), nil, false)
	}, func(i int, rng *rand.Rand, shape []int) []float32 {
		// Stay away from the clip boundaries where the gradient is
		// discontinuous.
		vals := make([]float32, tensor.ShapeSize(shape))
		for j := range vals {
			vals[j] = float32(0.8 + rng.Float64()*0.3)
		}
		return vals
	})
}

func TestSecondOrderGradient(t *testing.T) {
	// d²(x³)/dx² = 6x.
	e := core.Global()
	x := FromValues([]float32{2}, 1)
	defer x.Dispose()
	outer := e.Gradients(func() *tensor.Tensor {
		inner := e.Gradients(func() *tensor.Tensor {
			return Reshape(Mul(Mul(x, x), x))
		}, []*tensor.Tensor{x}, nil)
		return Reshape(inner.Grads[0])
	}, []*tensor.Tensor{x}, nil)
	got := outer.Grads[0].DataSync()[0]
	if math.Abs(float64(got)-12) > 1e-4 {
		t.Fatalf("second-order grad = %g, want 12", got)
	}
}

func TestGradCumSum(t *testing.T) {
	gradCheck(t, "CumSum", [][]int{{2, 4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		w := FromValues([]float32{1, -1, 2, 0.5, 3, 1, -2, 1}, 2, 4)
		return Sum(Mul(CumSum(xs[0], 1, false, false), w), nil, false)
	}, nil)
	gradCheck(t, "CumSumExclRev", [][]int{{3, 2}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		w := FromValues([]float32{1, -1, 2, 0.5, 3, 1}, 3, 2)
		return Sum(Mul(CumSum(xs[0], 0, true, true), w), nil, false)
	}, nil)
}

func TestGradExpm1Tan(t *testing.T) {
	gradCheck(t, "Expm1", [][]int{{4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Expm1(xs[0]), nil, false)
	}, nil)
	gradCheck(t, "Tan", [][]int{{4}}, func(xs []*tensor.Tensor) *tensor.Tensor {
		return Sum(Tan(MulScalar(xs[0], 0.3)), nil, false)
	}, nil)
}
