package kernels

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// Reduction kernels take the op's own shape: an N-D input, its Axes
// (ReduceAxes) and KeepDims. A value folds its reduced
// coordinates where they lie, in row-major order of the sorted reduced
// axes — the order a transpose bringing them innermost would give them, so
// no caller transposes or reshapes. CumSum scans its Axis of any rank in
// place, and Softmax normalises the last axis of any rank.

// Axes is the set of axes a reduction folds (or Reverse flips), a bit per
// axis: ReduceAxes rejects a rank it cannot hold.
type Axes uint64

// Has reports whether axis is reduced.
func (s Axes) Has(axis int) bool { return s>>uint(axis)&1 != 0 }

// ReduceAxes resolves a reduction's or Reverse's axes against an input of
// rank dims: none, every axis; otherwise each axis listed, once, a negative
// one counting from the end.
func ReduceAxes(name string, axes []int, rank int) (Axes, error) {
	if rank > 64 {
		return 0, errIn(name, "rank %d is beyond the 64 axes a reduction handles", rank)
	}
	if len(axes) == 0 {
		return 1<<uint(rank) - 1, nil
	}
	var s Axes
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return 0, errIn(name, "axis %v out of range for rank %d", axes, rank)
		}
		s |= 1 << uint(a)
	}
	return s, nil
}

// Shape appends to dst the output shape of a reduction over s of an input
// of shape x: each kept dim, and each reduced one as 1 with keepDims.
func (s Axes) Shape(dst, x []int, keepDims bool) []int {
	for i, d := range x {
		switch {
		case !s.Has(i):
			dst = append(dst, d)
		case keepDims:
			dst = append(dst, 1)
		}
	}
	return dst
}

// Reduce is a resolved reduction of a row-major input whose dims, size-1
// ones dropped and neighbours of one kind merged, are runs that alternate
// between kept and reduced: an output value's kept coordinates pick a base
// offset, and it folds the values at that base plus every reduced
// coordinate's offset. It takes any number of runs: its slices are sized
// when the call is resolved, once per call signature (Memo).
type Reduce struct {
	op reduction
	// kept and red are the kept and the reduced runs, innermost first:
	// each run's size and its stride in x.
	kept, red    [][2]int
	outerReduced bool // the outermost run is reduced
	outer, inner int  // output values, and the values each folds
}

// ResolveReduce checks a reduction — one operand, its axes (ReduceAxes)
// and keepDims; an index reduction needs a non-empty fold — describes its
// output in out (Mean's dtype float32, an index's int32, Any's and All's
// bool, the rest the input's) and returns its geometry.
func ResolveReduce(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Reduce, error) {
	if err := wantInputs(name, inputs, 1); err != nil {
		return Reduce{}, err
	}
	x := inputs[0].Shape
	set, err := ReduceAxes(name, attrs.Axes, len(x))
	if err != nil {
		return Reduce{}, err
	}
	g := Reduce{op: reductionOps[name], outer: 1, inner: 1}
	for i, stride := len(x)-1, 1; i >= 0; stride, i = stride*x[i], i-1 {
		d, reduced := x[i], set.Has(i)
		if reduced {
			g.inner *= d
		} else {
			g.outer *= d
		}
		if d == 1 {
			continue
		}
		runs := &g.kept
		if reduced {
			runs = &g.red
		}
		if len(g.kept)+len(g.red) > 0 && g.outerReduced == reduced {
			(*runs)[len(*runs)-1][0] *= d
		} else {
			*runs = append(*runs, [2]int{d, stride})
		}
		g.outerReduced = reduced
	}
	dt := inputs[0].DType
	switch name {
	case "Mean":
		dt = tensor.Float32
	case "Any", "All":
		dt = tensor.Bool
	case "ArgMax", "ArgMin":
		if g.inner == 0 {
			return Reduce{}, errIn(name, "cannot reduce over empty dimension")
		}
		dt = tensor.Int32
	}
	out.Shape, out.DType = set.Shape(out.Shape[:0], x, attrs.KeepDims), dt
	return g, nil
}

// leading reports whether the reduction sums over leading axes: one reduced
// run outside one kept run.
func (g Reduce) leading() bool {
	return len(g.kept) == 1 && len(g.red) == 1 && g.outerReduced
}

// Fill computes the output values [lo, lo+len(dst)) of the reduction of x
// into dst, each folded left to right over its reduced coordinates in
// row-major order, as the reference kernel folds them: sums from +0, Prod
// from 1, Max from -Inf and Min from +Inf with a NaN never taken, ArgMax
// and ArgMin keeping the first of equal values, Any and All as bools. No
// range splits a fold.
func (g Reduce) Fill(x []float32, lo int, dst []float32) {
	// A fold walks red[0] per call, at each coordinate of the reduced runs
	// outside it.
	n, s := 1, 1
	if len(g.red) > 0 {
		n, s = g.red[0][0], g.red[0][1]
	}
	for i := range dst {
		base := 0
		for d, o := 0, lo+i; d < len(g.kept); d++ {
			base, o = base+o%g.kept[d][0]*g.kept[d][1], o/g.kept[d][0]
		}
		acc, at := g.op.start(x, base), 0
		for k := 0; k < g.inner; k += n {
			off := base
			for d, q := 1, k/n; d < len(g.red); d++ {
				off, q = off+q%g.red[d][0]*g.red[d][1], q/g.red[d][0]
			}
			acc, at = g.op.run(acc, at, x[off:off+(n-1)*s+1], s, k)
		}
		dst[i] = g.op.finish(acc, at, g.inner)
	}
}

// A reduction is the fold of one of the range table's reductions.
type reduction uint8

const (
	sumOp reduction = iota
	meanOp
	maxOp
	minOp
	prodOp
	argMaxOp
	argMinOp
	anyOp
	allOp
)

// reductionOps maps the reductions the range table holds to their folds.
var reductionOps = map[string]reduction{
	"Sum": sumOp, "Mean": meanOp, "Max": maxOp, "Min": minOp, "Prod": prodOp, "ArgMax": argMaxOp, "ArgMin": argMinOp,
	"Any": anyOp, "All": allOp,
}

// start is a fold's accumulator before its first value, x[at]; an index
// reduction's, whose fold is never empty, is that value.
func (r reduction) start(x []float32, at int) float32 {
	switch r {
	case prodOp, allOp:
		return 1
	case maxOp:
		return float32(math.Inf(-1))
	case minOp:
		return float32(math.Inf(1))
	case argMaxOp, argMinOp:
		return x[at]
	}
	return 0
}

// run folds row[0], row[s], … — the fold's values k, k+1, … — into acc,
// and an index reduction's index of its best value into at.
func (r reduction) run(acc float32, at int, row []float32, s, k int) (float32, int) {
	switch r {
	case sumOp, meanOp:
		for i := 0; i < len(row); i += s {
			acc += row[i]
		}
	case maxOp:
		for i := 0; i < len(row); i += s {
			if v := row[i]; v > acc {
				acc = v
			}
		}
	case minOp:
		for i := 0; i < len(row); i += s {
			if v := row[i]; v < acc {
				acc = v
			}
		}
	case prodOp:
		for i := 0; i < len(row); i += s {
			acc *= row[i]
		}
	case argMaxOp:
		for i := 0; i < len(row); i += s {
			if v := row[i]; v > acc {
				acc, at = v, k+i/s
			}
		}
	case argMinOp:
		for i := 0; i < len(row); i += s {
			if v := row[i]; v < acc {
				acc, at = v, k+i/s
			}
		}
	case anyOp:
		for i := 0; i < len(row); i += s {
			acc = toBool(acc != 0 || row[i] != 0)
		}
	case allOp:
		for i := 0; i < len(row); i += s {
			acc = toBool(acc != 0 && row[i] != 0)
		}
	}
	return acc, at
}

// finish is a fold's value from its accumulator over n values: Mean
// divides (an empty mean is NaN), an index reduction is its index.
func (r reduction) finish(acc float32, at, n int) float32 {
	switch r {
	case meanOp:
		if n == 0 {
			return float32(math.NaN())
		}
		return acc / float32(n)
	case argMaxOp, argMinOp:
		return float32(at)
	}
	return acc
}

// ColumnSums computes the output values [lo, lo+len(dst)) of a Sum over
// leading axes — the sums of the columns of x viewed as [rows, columns] —
// into dst, on vec.SumRows: each column meets its rows in order, from +0,
// as Reduce.Fill folds them.
func ColumnSums(x []float32, rows, columns, lo int, dst []float32) {
	if rows > 0 {
		x = x[lo:]
	}
	vec.SumRows(dst, x, columns, rows)
}

// keptIndex is the index of the output value that value p of x, of shape
// shape, folds into: its kept coordinates, row-major.
func keptIndex(shape []int, set Axes, p int) (o int) {
	for d, stride := len(shape)-1, 1; d >= 0; d-- {
		if !set.Has(d) {
			o, stride = o+p%shape[d]*stride, stride*shape[d]
		}
		p /= shape[d]
	}
	return o
}

// reduceKernel builds a reduction's reference kernel: one pass over x in
// row-major order merges each value into its output value's accumulator,
// from initial — so an accumulator meets its values in row-major order of
// the reduced axes — which finish then turns into the value with their
// count.
func reduceKernel(name string, initial float32, merge func(acc, v float32) float32, finish func(acc float32, n int) float32) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		if _, err := ResolveReduce(name, inputsOf(inputs), attrs, &res); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		set, err := ReduceAxes(name, attrs.Axes, len(x.Shape))
		if err != nil {
			return Buffer{}, err
		}
		out, n := NewBuffer(res.Shape, res.DType), make([]int, tensor.ShapeSize(res.Shape))
		for o := range out.Data {
			out.Data[o] = initial
		}
		for p, v := range x.Data {
			o := keptIndex(x.Shape, set, p)
			out.Data[o], n[o] = merge(out.Data[o], v), n[o]+1
		}
		for o, acc := range out.Data {
			if finish != nil {
				out.Data[o] = finish(acc, n[o]) // an empty fold's n is 0
			}
		}
		return out, nil
	}
}

// argReduceKernel builds an index reduction's reference kernel: the
// position, in fold order, of the first best value each output meets in
// one pass over x.
func argReduceKernel(name string, better func(v, best float32) bool) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		if _, err := ResolveReduce(name, inputsOf(inputs), attrs, &res); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		set, err := ReduceAxes(name, attrs.Axes, len(x.Shape))
		if err != nil {
			return Buffer{}, err
		}
		out := NewBuffer(res.Shape, res.DType)
		best, n := make([]float32, len(out.Data)), make([]int, len(out.Data))
		for p, v := range x.Data {
			o := keptIndex(x.Shape, set, p)
			if n[o] == 0 || better(v, best[o]) {
				best[o], out.Data[o] = v, float32(n[o])
			}
			n[o]++
		}
		return out, nil
	}
}

// ResolveSoftmax checks Softmax's one operand, of any rank ≥ 1, whose
// last axis it normalises: outer rows of inner values. The output is the
// input's shape in float32.
func ResolveSoftmax(inputs []Input, out *TensorInfo) (outer, inner int, err error) {
	if err := wantInputs("Softmax", inputs, 1); err != nil {
		return 0, 0, err
	}
	x := inputs[0].Shape
	if len(x) == 0 {
		return 0, 0, errIn("Softmax", "input must have rank >= 1, got a scalar")
	}
	out.Shape, out.DType = append(out.Shape[:0], x...), tensor.Float32
	return tensor.ShapeSize(x[:len(x)-1]), x[len(x)-1], nil
}

// The reductions' reference kernels, each folding its reduced values in
// row-major order of the sorted reduced axes.
var (
	sumRef = reduceKernel("Sum", 0,
		func(acc, v float32) float32 { return acc + v }, nil)
	prodRef = reduceKernel("Prod", 1,
		func(acc, v float32) float32 { return acc * v }, nil)
	maxRef = reduceKernel("Max", float32(math.Inf(-1)),
		func(acc, v float32) float32 {
			if v > acc {
				return v
			}
			return acc
		}, nil)
	minRef = reduceKernel("Min", float32(math.Inf(1)),
		func(acc, v float32) float32 {
			if v < acc {
				return v
			}
			return acc
		}, nil)
	meanRef = reduceKernel("Mean", 0,
		func(acc, v float32) float32 { return acc + v },
		func(acc float32, n int) float32 {
			if n == 0 {
				return float32(math.NaN())
			}
			return acc / float32(n)
		})
	anyRef = reduceKernel("Any", 0,
		func(acc, v float32) float32 { return toBool(acc != 0 || v != 0) }, nil)
	allRef = reduceKernel("All", 1,
		func(acc, v float32) float32 { return toBool(acc != 0 && v != 0) }, nil)

	argMaxRef = argReduceKernel("ArgMax", func(v, best float32) bool { return v > best })
	argMinRef = argReduceKernel("ArgMin", func(v, best float32) bool { return v < best })
)

// Softmax computes a numerically stable softmax over the last axis, a
// row at a time. Its range body (SoftmaxRows) is the device tiers'
// one body: every value bit for bit this kernel's, on node and on
// webgl, wherever a range is cut.
func softmaxRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	outer, inner, err := ResolveSoftmax(inputsOf(inputs), &res)
	if err != nil {
		return Buffer{}, err
	}
	x := inputs[0]
	out := NewBuffer(res.Shape, res.DType)
	for o := 0; o < outer; o++ {
		SoftmaxRow(out.Data[o*inner:(o+1)*inner], x.Data[o*inner:(o+1)*inner])
	}
	return out, nil
}

// CumSum computes an inclusive or exclusive cumulative sum along Axis
// (negative counting from the end) of an input of any rank ≥ 1: each
// line along the axis scanned in place, at the axis's stride.
func cumSumRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	c, err := ResolveCumSum(inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	x, n, stride := inputs[0], c.n, c.stride
	out := NewBuffer(res.Shape, res.DType)
	for line := 0; line < len(x.Data)/max(n, 1); line++ {
		base := line/stride*n*stride + line%stride
		var acc float32
		for step := 0; step < n; step++ {
			i := step
			if attrs.Reverse {
				i = n - 1 - step
			}
			at := base + i*stride
			if attrs.Exclusive {
				out.Data[at] = acc
				acc += x.Data[at]
			} else {
				acc += x.Data[at]
				out.Data[at] = acc
			}
		}
	}
	return out, nil
}

// A Scan is a resolved CumSum: x as [outer, n, stride], each of its
// stride lines of n values along the axis summed in order — from the
// line's end when reversed — each value its sum up to itself, or, when
// exclusive, up to the one before.
type Scan struct {
	n, stride          int
	exclusive, reverse bool
}

// ResolveCumSum checks a CumSum — one operand of rank ≥ 1, attr Axis
// (negative counts from the end), Exclusive and Reverse — and returns its
// scan. The output is the input's shape and dtype.
func ResolveCumSum(inputs []Input, attrs Attrs, out *TensorInfo) (Scan, error) {
	if err := wantInputs("CumSum", inputs, 1); err != nil {
		return Scan{}, err
	}
	x := inputs[0].Shape
	rank, axis := len(x), attrs.Axis
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return Scan{}, errIn("CumSum", "axis %d out of range for rank %d", attrs.Axis, rank)
	}
	out.Shape, out.DType = append(out.Shape[:0], x...), inputs[0].DType
	return Scan{x[axis], tensor.ShapeSize(x[axis+1:]), attrs.Exclusive, attrs.Reverse}, nil
}

// Fill computes the output values [lo, lo+len(dst)) of the scan of x into
// dst. Each line the range meets is scanned from its start, as the
// reference kernel scans it, to the last of its values in the range, the
// values before the range summed but not written: a range cut mid-line
// sums its line's head again. A block of n·stride values — native's chunk
// — scans each of its lines once.
func (c Scan) Fill(x []float32, lo int, dst []float32) {
	n, s := c.n, c.stride
	block := n * s
	for at, hi := lo, lo+len(dst); at < hi; {
		o := at / block
		end := min(hi, (o+1)*block)
		// The range's first and last positions in the block, as (i, j): the
		// value i along line j.
		first, last := at-o*block, end-1-o*block
		for k := 0; k < min(s, end-at); k++ {
			j := (first + k) % s
			iLo, iHi := first/s, last/s
			if j < first%s {
				iLo++
			}
			if j > last%s {
				iHi--
			}
			var acc float32
			for step := 0; step < n; step++ {
				i := step
				if c.reverse {
					i = n - 1 - step
				}
				if i < iLo && c.reverse || i > iHi && !c.reverse {
					break
				}
				p := o*block + i*s + j
				switch {
				case i < iLo || i > iHi:
					acc += x[p]
				case c.exclusive:
					dst[p-lo] = acc
					acc += x[p]
				default:
					acc += x[p]
					dst[p-lo] = acc
				}
			}
		}
		at = end
	}
}

// SoftmaxRow is one row of Softmax: e^(x−max) per value, summed in float64,
// each scaled by the float32 reciprocal of the sum. len(dst) == len(x).
func SoftmaxRow(dst, x []float32) {
	maxV := float32(math.Inf(-1))
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxRows fills dst with the values [lo, lo+len(dst)) of Softmax over
// the rows of inner values of x. A whole row is SoftmaxRow, one exp per
// value. A range that begins or ends mid-row — a texel range on webgl —
// takes its row's max and sum over the whole row, in SoftmaxRow's order,
// then writes its own values, each e^(x−max) recomputed and scaled by the
// same reciprocal: SoftmaxRow's bits.
func SoftmaxRows(x []float32, inner, lo int, dst []float32) {
	for len(dst) > 0 {
		start := lo - lo%inner
		row, off := x[start:start+inner], lo-start
		n := min(inner-off, len(dst))
		if n == inner {
			SoftmaxRow(dst[:n], row)
		} else {
			maxV := float32(math.Inf(-1))
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for _, v := range row {
				sum += math.Exp(float64(v - maxV))
			}
			inv := float32(1 / sum)
			for i := range dst[:n] {
				dst[i] = float32(math.Exp(float64(row[off+i]-maxV))) * inv
			}
		}
		lo, dst = lo+n, dst[n:]
	}
}
