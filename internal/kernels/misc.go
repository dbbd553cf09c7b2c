package kernels

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/vec"
)

func init() {
	// Cast converts between logical dtypes. Because all storage is
	// float32, float->int truncates values and ->bool collapses non-zero
	// to 1.
	RegisterRef("Cast", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Cast", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		dtypeName := attrs.String("dtype", "float32")
		dt, err := tensor.ParseDataType(dtypeName)
		if err != nil {
			return Buffer{}, errIn("Cast", "%v", err)
		}
		out := NewBuffer(x.Shape, dt)
		switch dt {
		case tensor.Int32:
			for i, v := range x.Data {
				out.Data[i] = float32(math.Trunc(float64(v)))
			}
		case tensor.Bool:
			for i, v := range x.Data {
				out.Data[i] = toBool(v != 0)
			}
		default:
			copy(out.Data, x.Data)
		}
		return out, nil
	})

	// Fill creates a tensor of attr "shape" filled with attr "value".
	RegisterRef("Fill", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		value, err := ResolveFill(inputsOf(inputs), attrs, &res)
		if err != nil {
			return Buffer{}, err
		}
		out := NewBuffer(res.Shape, res.DType)
		if value != 0 {
			for i := range out.Data {
				out.Data[i] = float32(value)
			}
		}
		return out, nil
	})

	// Range produces [start, stop) with the given step.
	RegisterRef("Range", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Range", inputs, 0); err != nil {
			return Buffer{}, err
		}
		start := attrs.Float("start", 0)
		stop := attrs.Float("stop", 0)
		step := attrs.Float("step", 1)
		if step == 0 {
			return Buffer{}, errIn("Range", "step must be non-zero")
		}
		if (stop-start)/step < 0 {
			return Buffer{}, errIn("Range", "step %g has wrong sign for start %g stop %g", step, start, stop)
		}
		n := int(math.Ceil((stop - start) / step))
		if n < 0 {
			n = 0
		}
		dt, err := tensor.ParseDataType(attrs.String("dtype", "float32"))
		if err != nil {
			return Buffer{}, errIn("Range", "%v", err)
		}
		out := NewBuffer([]int{n}, dt)
		for i := 0; i < n; i++ {
			out.Data[i] = float32(start + float64(float64(i)*step))
		}
		return out, nil
	})

	// OneHot expands integer labels into one-hot rows.
	RegisterRef("OneHot", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		h, err := ResolveOneHot(inputsOf(inputs), attrs, &res)
		if err != nil {
			return Buffer{}, err
		}
		indices, depth, onValue, offValue := inputs[0], h.depth, h.on, h.off
		out := NewBuffer(res.Shape, res.DType)
		if offValue != 0 {
			for i := range out.Data {
				out.Data[i] = offValue
			}
		}
		for i, v := range indices.Data {
			idx := int(v)
			if idx >= 0 && idx < depth {
				out.Data[i*depth+idx] = onValue
			}
		}
		return out, nil
	})

	// Select picks from (t, f) according to a condition tensor, with
	// broadcasting across all three inputs.
	RegisterRef("Select", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		if _, err := ResolveSelect(inputsOf(inputs), &res); err != nil {
			return Buffer{}, err
		}
		cond, tVal, fVal, shape := inputs[0], inputs[1], inputs[2], res.Shape
		out := NewBuffer(shape, tVal.DType)
		cs := broadcastStrides(cond.Shape, shape)
		ts := broadcastStrides(tVal.Shape, shape)
		fs := broadcastStrides(fVal.Shape, shape)
		size := out.Size()
		rank := len(shape)
		coords := make([]int, rank)
		ci, ti, fi := 0, 0, 0
		for outIdx := 0; outIdx < size; outIdx++ {
			if cond.Data[ci] != 0 {
				out.Data[outIdx] = tVal.Data[ti]
			} else {
				out.Data[outIdx] = fVal.Data[fi]
			}
			for d := rank - 1; d >= 0; d-- {
				coords[d]++
				ci += cs[d]
				ti += ts[d]
				fi += fs[d]
				if coords[d] < shape[d] {
					break
				}
				coords[d] = 0
				ci -= shape[d] * cs[d]
				ti -= shape[d] * ts[d]
				fi -= shape[d] * fs[d]
			}
		}
		return out, nil
	})

	// FusedBatchNorm normalizes x with running statistics:
	// out = (x - mean) / sqrt(variance + eps) * scale + offset.
	// Inputs: x, mean, variance, offset, scale. mean/variance/offset/
	// scale broadcast against x (typically shape [C]).
	RegisterRef("FusedBatchNorm", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		if _, err := ResolveBatchNorm(inputsOf(inputs), attrs, &res); err != nil {
			return Buffer{}, err
		}
		x, mean, variance, offset, scale := inputs[0], inputs[1], inputs[2], inputs[3], inputs[4]
		eps := float32(attrs.Float("varianceEpsilon", 1e-3))
		out := NewBuffer(x.Shape, tensor.Float32)
		shape := x.Shape
		ms := broadcastStrides(mean.Shape, shape)
		vs := broadcastStrides(variance.Shape, shape)
		os := broadcastStrides(offset.Shape, shape)
		ss := broadcastStrides(scale.Shape, shape)
		rank := len(shape)
		coords := make([]int, rank)
		mi, vi, oi, si := 0, 0, 0, 0
		for idx := 0; idx < x.Size(); idx++ {
			out.Data[idx] = BatchNormValue(x.Data[idx], mean.Data[mi], variance.Data[vi], offset.Data[oi], scale.Data[si], eps)
			for d := rank - 1; d >= 0; d-- {
				coords[d]++
				mi += ms[d]
				vi += vs[d]
				oi += os[d]
				si += ss[d]
				if coords[d] < shape[d] {
					break
				}
				coords[d] = 0
				mi -= shape[d] * ms[d]
				vi -= shape[d] * vs[d]
				oi -= shape[d] * os[d]
				si -= shape[d] * ss[d]
			}
		}
		return out, nil
	})
}

// BatchNormValue is FusedBatchNorm's value, (x − mean)/√(variance + ε) ·
// scale + offset, each step rounded to float32: the reference kernel's and
// webgl's broadcast program's (vec.BatchNorm is its row form).
func BatchNormValue(x, mean, variance, offset, scale, eps float32) float32 {
	return float32((x-mean)/float32(math.Sqrt(float64(variance+eps)))*scale) + offset
}

// A BatchNorm is a resolved FusedBatchNorm.
type BatchNorm struct {
	eps float32
	// period is c when every parameter, leading 1s dropped, is x's trailing
	// dims of c values — batch norm's [C] vectors against [..., C] — so that
	// each repeats every c values of x: vec.BatchNorm's row form. Otherwise
	// it is 0, and ops lays x and the parameters over the output. A pointer:
	// a program's closure holds a BatchNorm per dispatch.
	period int32
	ops    *Operands
}

// ResolveBatchNorm checks a FusedBatchNorm — x and four parameters (mean,
// variance, offset, scale) whose shapes broadcast to x's; attr
// varianceEpsilon.
func ResolveBatchNorm(inputs []Input, attrs Attrs, out *TensorInfo) (BatchNorm, error) {
	if err := wantInputs("FusedBatchNorm", inputs, 5); err != nil {
		return BatchNorm{}, err
	}
	x := inputs[0].Shape
	n := BatchNorm{eps: float32(attrs.Float("varianceEpsilon", 1e-3)), period: int32(SuffixPeriod(inputs[1].Shape, x))}
	for i, p := range inputs[1:] {
		if !broadcastsTo(p.Shape, x) {
			return BatchNorm{}, errIn("FusedBatchNorm", "input %d shape %v does not broadcast to x's %v", i+1, p.Shape, x)
		}
		if SuffixPeriod(p.Shape, x) != int(n.period) {
			n.period = 0
		}
	}
	if n.period == 0 {
		ops := layOperands(x, x, inputs[1].Shape, inputs[2].Shape, inputs[3].Shape, inputs[4].Shape)
		n.ops = &ops
	}
	out.Shape, out.DType = append(out.Shape[:0], x...), tensor.Float32
	return n, nil
}

// SuffixPeriod is shape's number of values when, leading 1s dropped, it is
// out's trailing dims — a bias [C] against [..., C], a scalar, out's own
// shape: broadcast against out, it repeats with that period along out's
// values — and 0 otherwise.
func SuffixPeriod(shape, out []int) int {
	for len(shape) > 0 && shape[0] == 1 {
		shape = shape[1:]
	}
	if len(shape) > len(out) || !tensor.ShapesEqual(shape, out[len(out)-len(shape):]) {
		return 0
	}
	return tensor.ShapeSize(shape)
}

// broadcastsTo reports whether shape broadcasts to out without changing
// it: leading 1s past out's rank dropped, each dim, aligned at the last,
// is 1 or out's.
func broadcastsTo(shape, out []int) bool {
	for len(shape) > len(out) && shape[0] == 1 {
		shape = shape[1:]
	}
	if len(shape) > len(out) {
		return false
	}
	for i, n := range shape {
		if n != 1 && n != out[len(out)-len(shape)+i] {
			return false
		}
	}
	return true
}

// Fill computes the output values [lo, lo+len(dst)) of the batch norm into
// dst: BatchNormValue of x and the parameters where each broadcasts — the
// row vec.BatchNorm, bit-equal to it, when every parameter is one period
// of x.
func (n BatchNorm) Fill(x, mean, variance, offset, scale []float32, lo int, dst []float32) {
	if c := int(n.period); c > 0 {
		vec.BatchNorm(dst, x[lo:lo+len(dst)], mean[:c], variance, scale, offset, n.eps, lo%c)
		return
	}
	n.ops.runs(lo, dst, func(run []float32, at, step []int) {
		for i := range run {
			run[i] = BatchNormValue(x[at[0]+i*step[0]], mean[at[1]+i*step[1]], variance[at[2]+i*step[2]],
				offset[at[3]+i*step[3]], scale[at[4]+i*step[4]], n.eps)
		}
	})
}

// A Constant is Fill's range body: every value is the one value.
type Constant float32

// ResolveFill checks a Fill — no inputs; attrs shape, value and dtype.
func ResolveFill(inputs []Input, attrs Attrs, out *TensorInfo) (Constant, error) {
	if err := wantInputs("Fill", inputs, 0); err != nil {
		return 0, err
	}
	dt, err := tensor.ParseDataType(attrs.String("dtype", "float32"))
	if err != nil {
		return 0, errIn("Fill", "%v", err)
	}
	out.Shape, out.DType = append(out.Shape[:0], attrs.Ints("shape", nil)...), dt
	return Constant(attrs.Float("value", 0)), nil
}

// Fill sets dst, the output values [lo, lo+len(dst)), to c.
func (c Constant) Fill(_ []float32, lo int, dst []float32) {
	for i := range dst {
		dst[i] = float32(c)
	}
}

// OneHot is a resolved OneHot: depth values per index, onValue at the
// index's own position and offValue elsewhere (everywhere, for an index
// outside [0, depth)).
type OneHot struct {
	depth   int
	on, off float32
}

// ResolveOneHot checks a OneHot — one int32 input, a positive attr depth.
func ResolveOneHot(inputs []Input, attrs Attrs, out *TensorInfo) (OneHot, error) {
	if err := wantInputs("OneHot", inputs, 1); err != nil {
		return OneHot{}, err
	}
	h := OneHot{attrs.Int("depth", 0), float32(attrs.Float("onValue", 1)), float32(attrs.Float("offValue", 0))}
	if h.depth <= 0 {
		return OneHot{}, errIn("OneHot", "depth must be positive, got %d", h.depth)
	}
	out.Shape, out.DType = append(append(out.Shape[:0], inputs[0].Shape...), h.depth), tensor.Float32
	return h, nil
}

// Fill computes the output values [lo, lo+len(dst)) of the one-hot rows of
// idx into dst.
func (h OneHot) Fill(idx []float32, lo int, dst []float32) {
	for i := range dst {
		if at := lo + i; int(idx[at/h.depth]) == at%h.depth {
			dst[i] = h.on
		} else {
			dst[i] = h.off
		}
	}
}
