package tf

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/ops"
)

// This file re-exports the Ops API (the lower-level linear algebra
// operations of Figure 1) under the tf namespace.

// TensorOf creates a tensor from values with an arbitrary shape.
func TensorOf(values []float32, shape ...int) *Tensor { return ops.FromValues(values, shape...) }

// Scalar creates a rank-0 tensor (tf.scalar).
func Scalar(v float32) *Tensor { return ops.Scalar(v) }

// Tensor1D creates a rank-1 tensor (tf.tensor1d).
func Tensor1D(values []float32) *Tensor { return ops.FromValues(values, len(values)) }

// Tensor2D creates a rank-2 tensor (tf.tensor2d, as in Listing 1).
func Tensor2D(values []float32, rows, cols int) *Tensor {
	return ops.FromValues(values, rows, cols)
}

// Tensor3D creates a rank-3 tensor.
func Tensor3D(values []float32, d0, d1, d2 int) *Tensor {
	return ops.FromValues(values, d0, d1, d2)
}

// Tensor4D creates a rank-4 tensor.
func Tensor4D(values []float32, d0, d1, d2, d3 int) *Tensor {
	return ops.FromValues(values, d0, d1, d2, d3)
}

// Zeros, Ones, Fill and friends create constant tensors.
func Zeros(shape ...int) *Tensor { return ops.Zeros(shape...) }

// Ones creates a tensor filled with ones.
func Ones(shape ...int) *Tensor { return ops.Ones(shape...) }

// Fill creates a tensor of the given shape filled with v.
func Fill(shape []int, v float32) *Tensor { return ops.Fill(shape, v) }

// ZerosLike creates a zero tensor with t's shape.
func ZerosLike(t *Tensor) *Tensor { return ops.ZerosLike(t) }

// OnesLike creates a one-filled tensor with t's shape.
func OnesLike(t *Tensor) *Tensor { return ops.OnesLike(t) }

// Eye creates an n×n identity matrix.
func Eye(n int) *Tensor { return ops.Eye(n) }

// RangeN creates a 1-D tensor of values in [start, stop) stepping by step.
func RangeN(start, stop, step float64) *Tensor { return ops.Range(start, stop, step) }

// Linspace creates num evenly spaced values in [start, stop].
func Linspace(start, stop float64, num int) *Tensor { return ops.Linspace(start, stop, num) }

// RandNormal and RandUniform sample random tensors; nil rng is seeded
// deterministically.
func RandNormal(shape []int, mean, stddev float64, rng *rand.Rand) *Tensor {
	return ops.RandNormal(shape, mean, stddev, rng)
}

// RandUniform samples a tensor uniformly from [lo, hi).
func RandUniform(shape []int, lo, hi float64, rng *rand.Rand) *Tensor {
	return ops.RandUniform(shape, lo, hi, rng)
}

// OneHot expands integer labels into one-hot rows.
func OneHot(indices *Tensor, depth int) *Tensor { return ops.OneHot(indices, depth) }

// Cast converts dtypes.
func Cast(t *Tensor, dtype DataType) *Tensor { return ops.Cast(t, dtype) }

// Arithmetic (broadcasting).
func Add(a, b *Tensor) *Tensor { return ops.Add(a, b) }

// Sub returns a - b with broadcasting.
func Sub(a, b *Tensor) *Tensor { return ops.Sub(a, b) }

// Mul returns a * b element-wise with broadcasting.
func Mul(a, b *Tensor) *Tensor { return ops.Mul(a, b) }

// Div returns a / b element-wise with broadcasting.
func Div(a, b *Tensor) *Tensor { return ops.Div(a, b) }

// Maximum returns the element-wise maximum with broadcasting.
func Maximum(a, b *Tensor) *Tensor { return ops.Maximum(a, b) }

// Minimum returns the element-wise minimum with broadcasting.
func Minimum(a, b *Tensor) *Tensor { return ops.Minimum(a, b) }

// Pow returns a ** b element-wise with broadcasting.
func Pow(a, b *Tensor) *Tensor { return ops.Pow(a, b) }

// SquaredDifference returns (a-b)² element-wise.
func SquaredDifference(a, b *Tensor) *Tensor { return ops.SquaredDifference(a, b) }

// AddScalar returns t + v.
func AddScalar(t *Tensor, v float32) *Tensor { return ops.AddScalar(t, v) }

// SubScalar returns t - v.
func SubScalar(t *Tensor, v float32) *Tensor { return ops.SubScalar(t, v) }

// MulScalar returns t * v.
func MulScalar(t *Tensor, v float32) *Tensor { return ops.MulScalar(t, v) }

// DivScalar returns t / v.
func DivScalar(t *Tensor, v float32) *Tensor { return ops.DivScalar(t, v) }

// Comparison and selection.
func Greater(a, b *Tensor) *Tensor { return ops.Greater(a, b) }

// GreaterEqual returns a >= b element-wise as a bool tensor.
func GreaterEqual(a, b *Tensor) *Tensor { return ops.GreaterEqual(a, b) }

// Less returns a < b element-wise as a bool tensor.
func Less(a, b *Tensor) *Tensor { return ops.Less(a, b) }

// LessEqual returns a <= b element-wise as a bool tensor.
func LessEqual(a, b *Tensor) *Tensor { return ops.LessEqual(a, b) }

// Equal returns a == b element-wise as a bool tensor.
func Equal(a, b *Tensor) *Tensor { return ops.Equal(a, b) }

// NotEqual returns a != b element-wise as a bool tensor.
func NotEqual(a, b *Tensor) *Tensor { return ops.NotEqual(a, b) }

// Where selects t where cond is true and f elsewhere, with broadcasting.
func Where(cond, t, f *Tensor) *Tensor { return ops.Where(cond, t, f) }

// LogicalAnd returns a && b element-wise.
func LogicalAnd(a, b *Tensor) *Tensor { return ops.LogicalAnd(a, b) }

// LogicalOr returns a || b element-wise.
func LogicalOr(a, b *Tensor) *Tensor { return ops.LogicalOr(a, b) }

// LogicalNot inverts a bool tensor element-wise.
func LogicalNot(t *Tensor) *Tensor { return ops.LogicalNot(t) }

// Unary math.
func Neg(t *Tensor) *Tensor { return ops.Neg(t) }

// Abs returns |t| element-wise.
func Abs(t *Tensor) *Tensor { return ops.Abs(t) }

// Exp returns e^t element-wise.
func Exp(t *Tensor) *Tensor { return ops.Exp(t) }

// Log returns the natural logarithm element-wise.
func Log(t *Tensor) *Tensor { return ops.Log(t) }

// Log1p returns log(1+t) element-wise.
func Log1p(t *Tensor) *Tensor { return ops.Log1p(t) }

// Sqrt returns the square root element-wise.
func Sqrt(t *Tensor) *Tensor { return ops.Sqrt(t) }

// Rsqrt returns 1/sqrt(t) element-wise.
func Rsqrt(t *Tensor) *Tensor { return ops.Rsqrt(t) }

// Square returns t² element-wise.
func Square(t *Tensor) *Tensor { return ops.Square(t) }

// Reciprocal returns 1/t element-wise.
func Reciprocal(t *Tensor) *Tensor { return ops.Reciprocal(t) }

// Floor rounds down element-wise.
func Floor(t *Tensor) *Tensor { return ops.Floor(t) }

// Ceil rounds up element-wise.
func Ceil(t *Tensor) *Tensor { return ops.Ceil(t) }

// Round rounds to even element-wise.
func Round(t *Tensor) *Tensor { return ops.Round(t) }

// Sign returns -1, 0 or 1 element-wise.
func Sign(t *Tensor) *Tensor { return ops.Sign(t) }

// Sin returns sin(t) element-wise.
func Sin(t *Tensor) *Tensor { return ops.Sin(t) }

// Cos returns cos(t) element-wise.
func Cos(t *Tensor) *Tensor { return ops.Cos(t) }

// Tanh returns tanh(t) element-wise.
func Tanh(t *Tensor) *Tensor { return ops.Tanh(t) }

// Sigmoid returns 1/(1+e^-t) element-wise.
func Sigmoid(t *Tensor) *Tensor { return ops.Sigmoid(t) }

// Softplus returns log(1+e^t) element-wise.
func Softplus(t *Tensor) *Tensor { return ops.Softplus(t) }

// Relu returns max(t, 0) element-wise.
func Relu(t *Tensor) *Tensor { return ops.Relu(t) }

// Relu6 returns min(max(t, 0), 6) element-wise.
func Relu6(t *Tensor) *Tensor { return ops.Relu6(t) }

// Elu returns the exponential linear unit element-wise.
func Elu(t *Tensor) *Tensor { return ops.Elu(t) }

// IsNaN returns a bool tensor marking NaN elements.
func IsNaN(t *Tensor) *Tensor { return ops.IsNaN(t) }

// LeakyRelu, ClipByValue and Step take parameters.
func LeakyRelu(t *Tensor, alpha float64) *Tensor { return ops.LeakyRelu(t, alpha) }

// ClipByValue clamps t into [lo, hi].
func ClipByValue(t *Tensor, lo, hi float64) *Tensor { return ops.ClipByValue(t, lo, hi) }

// MatMul multiplies rank-2 matrices (Listing 2's operation).
func MatMul(a, b *Tensor, transposeA, transposeB bool) *Tensor {
	return ops.MatMul(a, b, transposeA, transposeB)
}

// BatchMatMul multiplies rank-3 tensors batch-wise, or two matrices.
func BatchMatMul(a, b *Tensor, transposeA, transposeB bool) *Tensor {
	return ops.BatchMatMul(a, b, transposeA, transposeB)
}

// Dot is the rank-1 dot product.
func Dot(a, b *Tensor) *Tensor { return ops.Dot(a, b) }

// ConvOpts configures convolution ops.
type ConvOpts = ops.ConvOpts

// PoolOpts configures pooling ops.
type PoolOpts = ops.PoolOpts

// Convolutions and pooling over NHWC tensors.
func Conv2D(x, filter *Tensor, opts ConvOpts) *Tensor { return ops.Conv2D(x, filter, opts) }

// DepthwiseConv2D convolves each channel with its own filters.
func DepthwiseConv2D(x, filter *Tensor, opts ConvOpts) *Tensor {
	return ops.DepthwiseConv2D(x, filter, opts)
}

// SeparableConv2D chains a depthwise and a 1x1 pointwise convolution.
func SeparableConv2D(x, depthwise, pointwise *Tensor, opts ConvOpts) *Tensor {
	return ops.SeparableConv2D(x, depthwise, pointwise, opts)
}

// MaxPool computes 2-D max pooling over NHWC input.
func MaxPool(x *Tensor, opts PoolOpts) *Tensor { return ops.MaxPool(x, opts) }

// AvgPool computes 2-D average pooling over NHWC input.
func AvgPool(x *Tensor, opts PoolOpts) *Tensor { return ops.AvgPool(x, opts) }

// GlobalAvgPool averages over the spatial dimensions of NHWC input.
func GlobalAvgPool(x *Tensor) *Tensor { return ops.GlobalAvgPool(x) }

// BatchNorm normalizes x with given statistics.
func BatchNorm(x, mean, variance, offset, scale *Tensor, epsilon float64) *Tensor {
	return ops.BatchNorm(x, mean, variance, offset, scale, epsilon)
}

// Reductions; empty axes reduce everything.
func Sum(t *Tensor, axes []int, keepDims bool) *Tensor { return ops.Sum(t, axes, keepDims) }

// Mean reduces by arithmetic mean over axes (all axes when empty).
func Mean(t *Tensor, axes []int, keepDims bool) *Tensor { return ops.Mean(t, axes, keepDims) }

// Max reduces by maximum over axes.
func Max(t *Tensor, axes []int, keepDims bool) *Tensor { return ops.Max(t, axes, keepDims) }

// Min reduces by minimum over axes.
func Min(t *Tensor, axes []int, keepDims bool) *Tensor { return ops.Min(t, axes, keepDims) }

// Prod reduces by product over axes.
func Prod(t *Tensor, axes []int, keepDims bool) *Tensor { return ops.Prod(t, axes, keepDims) }

// Any reduces by logical-or over axes.
func Any(t *Tensor, axes []int, keepDims bool) *Tensor { return ops.Any(t, axes, keepDims) }

// All reduces by logical-and over axes.
func All(t *Tensor, axes []int, keepDims bool) *Tensor { return ops.All(t, axes, keepDims) }

// ArgMax returns the index of the maximum along axis as an int32 tensor.
func ArgMax(t *Tensor, axis int) *Tensor { return ops.ArgMax(t, axis) }

// ArgMin returns the index of the minimum along axis as an int32 tensor.
func ArgMin(t *Tensor, axis int) *Tensor { return ops.ArgMin(t, axis) }

// Softmax and friends operate over the last axis.
func Softmax(t *Tensor) *Tensor { return ops.Softmax(t) }

// LogSoftmax computes log(softmax) over the last axis.
func LogSoftmax(t *Tensor) *Tensor { return ops.LogSoftmax(t) }

// LogSumExp computes log(sum(exp(t))) over axes with stabilization.
func LogSumExp(t *Tensor, axes []int, keepDims bool) *Tensor {
	return ops.LogSumExp(t, axes, keepDims)
}

// Moments returns mean and variance over axes.
func Moments(t *Tensor, axes []int, keepDims bool) (mean, variance *Tensor) {
	return ops.Moments(t, axes, keepDims)
}

// Shape manipulation. Reshape and ExpandDims are free (Section 3.4).
func Reshape(t *Tensor, shape ...int) *Tensor { return ops.Reshape(t, shape...) }

// Flatten reshapes t to rank 1.
func Flatten(t *Tensor) *Tensor { return ops.Flatten(t) }

// ExpandDims inserts a size-1 dimension at axis.
func ExpandDims(t *Tensor, axis int) *Tensor { return ops.ExpandDims(t, axis) }

// Squeeze removes size-1 dimensions; with axes given, only those.
func Squeeze(t *Tensor, axes ...int) *Tensor { return ops.Squeeze(t, axes...) }

// Transpose permutes dimensions; an empty perm reverses them.
func Transpose(t *Tensor, perm ...int) *Tensor { return ops.Transpose(t, perm...) }

// Concat concatenates tensors along axis.
func Concat(ts []*Tensor, axis int) *Tensor { return ops.Concat(ts, axis) }

// Stack stacks equally shaped tensors along a new axis.
func Stack(ts []*Tensor, axis int) *Tensor { return ops.Stack(ts, axis) }

// Unstack splits t along axis into tensors with that axis removed.
func Unstack(t *Tensor, axis int) []*Tensor { return ops.Unstack(t, axis) }

// Slice extracts the region at begin with the given size (-1 extends to the end).
func Slice(t *Tensor, begin, size []int) *Tensor { return ops.Slice(t, begin, size) }

// Split divides t into numSplits equal parts along axis.
func Split(t *Tensor, numSplits, axis int) []*Tensor { return ops.Split(t, numSplits, axis) }

// Pad pads t with constantValue; one [before, after] pair per dimension.
func Pad(t *Tensor, paddings [][2]int, constantValue float64) *Tensor {
	return ops.Pad(t, paddings, constantValue)
}

// Gather selects slices of t along axis using integer indices.
func Gather(t, indices *Tensor, axis int) *Tensor { return ops.Gather(t, indices, axis) }

// Tile repeats t reps[d] times along each dimension d.
func Tile(t *Tensor, reps []int) *Tensor { return ops.Tile(t, reps) }

// Reverse flips t along the given axes, every axis when none is given.
func Reverse(t *Tensor, axes ...int) *Tensor { return ops.Reverse(t, axes...) }

// ---------------------------------------------------------------------------
// Automatic differentiation (Section 3.5)

// GradResult carries the value and gradients of a differentiated function.
type GradResult = core.GradResult

// Grad returns f's value and d f / d x. f must return a scalar.
func Grad(f func() *Tensor, x *Tensor) (value, grad *Tensor) {
	res := core.Global().Gradients(f, []*Tensor{x}, nil)
	return res.Value, res.Grads[0]
}

// Grads returns f's value and its gradients with respect to xs.
func Grads(f func() *Tensor, xs []*Tensor) GradResult {
	return core.Global().Gradients(f, xs, nil)
}

// GradsWithDy backpropagates a provided output gradient.
func GradsWithDy(f func() *Tensor, xs []*Tensor, dy *Tensor) GradResult {
	return core.Global().Gradients(f, xs, dy)
}

// VariableGradsResult maps variables to their gradients.
type VariableGradsResult = core.VariableGradsResult

// VariableGrads differentiates a scalar loss with respect to trainable
// variables, the primitive optimizers are built on.
func VariableGrads(f func() *Tensor, vars []*Variable) VariableGradsResult {
	return core.Global().VariableGrads(f, vars)
}

// CumSum computes a cumulative sum along axis; exclusive excludes each
// element from its own prefix, reverse scans from the end.
func CumSum(t *Tensor, axis int, exclusive, reverse bool) *Tensor {
	return ops.CumSum(t, axis, exclusive, reverse)
}

// Mod computes the element-wise floored modulus.
func Mod(a, b *Tensor) *Tensor { return ops.Mod(a, b) }

// Atan2 computes atan2(a, b) element-wise.
func Atan2(a, b *Tensor) *Tensor { return ops.Atan2(a, b) }

// Expm1 computes e^x - 1 element-wise.
func Expm1(t *Tensor) *Tensor { return ops.Expm1(t) }

// Tan computes tan(x) element-wise.
func Tan(t *Tensor) *Tensor { return ops.Tan(t) }
