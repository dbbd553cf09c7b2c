package kernels

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// Reduction kernels operate on a canonical 2-D view [outer, inner] and
// reduce the inner dimension. The ops layer is responsible for transposing
// the reduced axes innermost and reshaping, exactly as the TensorFlow.js
// op layer does before invoking its reduction kernels. The one exception is
// BiasAddGrad, which reduces the outer dimension: a sum over leading axes
// needs no transpose.

// Rows checks the one [outer, inner] operand of a row kernel: a reduction,
// BiasAddGrad, Softmax, CumSum.
func Rows(name string, inputs []Input) (outer, inner int, err error) {
	if err := wantInputs(name, inputs, 1); err != nil {
		return 0, 0, err
	}
	if s := inputs[0].Shape; len(s) != 2 {
		return 0, 0, errIn(name, "input must be rank 2 [outer, inner], got %v", s)
	}
	return inputs[0].Shape[0], inputs[0].Shape[1], nil
}

// ResolveReduce checks a reduction's operand — an index reduction needs a
// non-empty row — and describes its [outer] output in out: Mean's is
// float32, an index's int32, Any's and All's bool, the rest the input's.
func ResolveReduce(name string, inputs []Input, out *TensorInfo) (outer, inner int, err error) {
	if outer, inner, err = Rows(name, inputs); err != nil {
		return 0, 0, err
	}
	dt := inputs[0].DType
	switch name {
	case "Mean":
		dt = tensor.Float32
	case "Any", "All":
		dt = tensor.Bool
	case "ArgMax", "ArgMin":
		if inner == 0 {
			return 0, 0, errIn(name, "cannot reduce over empty dimension")
		}
		dt = tensor.Int32
	}
	out.Shape, out.DType = append(out.Shape[:0], outer), dt
	return outer, inner, nil
}

// A Reduction is the row of an [outer, inner] → [outer] kernel as the host
// backends run it: it reduces one row to the reference kernel's value,
// folding it left to right as the reference does — sums from +0, Prod from
// 1, Max from -Inf and Min from +Inf with a NaN never taken, ArgMax and
// ArgMin keeping the first of equal values.
type Reduction func(row []float32) float32

// Fill computes the output values [lo, lo+len(dst)) of the reduction of the
// rows of x, inner values each, into dst: one row per value, whose
// accumulation no range splits.
func (r Reduction) Fill(x []float32, inner, lo int, dst []float32) {
	for i := range dst {
		dst[i] = r(x[(lo+i)*inner:][:inner])
	}
}

// reductions maps the reductions the range table holds to their rows.
var reductions = func() map[string]Reduction {
	sum := func(row []float32) (acc float32) {
		for _, v := range row {
			acc += v
		}
		return acc
	}
	arg := func(better func(v, best float32) bool) Reduction {
		return func(row []float32) float32 {
			best, at := row[0], 0
			for i, v := range row {
				if better(v, best) {
					best, at = v, i
				}
			}
			return float32(at)
		}
	}
	return map[string]Reduction{
		"Sum": sum,
		"Mean": func(row []float32) float32 {
			if len(row) == 0 {
				return float32(math.NaN())
			}
			return sum(row) / float32(len(row))
		},
		"Max": func(row []float32) float32 {
			acc := float32(math.Inf(-1))
			for _, v := range row {
				if v > acc {
					acc = v
				}
			}
			return acc
		},
		"Min": func(row []float32) float32 {
			acc := float32(math.Inf(1))
			for _, v := range row {
				if v < acc {
					acc = v
				}
			}
			return acc
		},
		"Prod": func(row []float32) float32 {
			acc := float32(1)
			for _, v := range row {
				acc *= v
			}
			return acc
		},
		"ArgMax": arg(func(v, best float32) bool { return v > best }),
		"ArgMin": arg(func(v, best float32) bool { return v < best }),
	}
}()

// ColumnSums computes the output values [lo, lo+len(dst)) of BiasAddGrad —
// the sums of the columns of an [outer, inner] x — into dst, on
// vec.SumRows: each column meets its rows in order, from +0.
func ColumnSums(x []float32, outer, inner, lo int, dst []float32) {
	if outer > 0 {
		x = x[lo:]
	}
	vec.SumRows(dst, x, inner, outer)
}

// reduceKernel builds a [outer, inner] -> [outer] reduction.
func reduceKernel(name string, initial float32, merge func(acc, v float32) float32, finish func(acc float32, n int) float32) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		outer, inner, err := ResolveReduce(name, inputsOf(inputs), &res)
		if err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		out := NewBuffer(res.Shape, res.DType)
		for o := 0; o < outer; o++ {
			acc := initial
			base := o * inner
			for i := 0; i < inner; i++ {
				acc = merge(acc, x.Data[base+i])
			}
			if finish != nil {
				acc = finish(acc, inner)
			}
			out.Data[o] = acc
		}
		return out, nil
	}
}

// argReduceKernel builds a [outer, inner] -> [outer] index reduction.
func argReduceKernel(name string, better func(v, best float32) bool) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		outer, inner, err := ResolveReduce(name, inputsOf(inputs), &res)
		if err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		out := NewBuffer(res.Shape, res.DType)
		for o := 0; o < outer; o++ {
			base := o * inner
			best := x.Data[base]
			bestIdx := 0
			for i := 1; i < inner; i++ {
				if better(x.Data[base+i], best) {
					best = x.Data[base+i]
					bestIdx = i
				}
			}
			out.Data[o] = float32(bestIdx)
		}
		return out, nil
	}
}

func init() {
	RegisterRef("Sum", reduceKernel("Sum", 0,
		func(acc, v float32) float32 { return acc + v }, nil))
	RegisterRef("Prod", reduceKernel("Prod", 1,
		func(acc, v float32) float32 { return acc * v }, nil))
	RegisterRef("Max", reduceKernel("Max", float32(math.Inf(-1)),
		func(acc, v float32) float32 {
			if v > acc {
				return v
			}
			return acc
		}, nil))
	RegisterRef("Min", reduceKernel("Min", float32(math.Inf(1)),
		func(acc, v float32) float32 {
			if v < acc {
				return v
			}
			return acc
		}, nil))
	RegisterRef("Mean", reduceKernel("Mean", 0,
		func(acc, v float32) float32 { return acc + v },
		func(acc float32, n int) float32 {
			if n == 0 {
				return float32(math.NaN())
			}
			return acc / float32(n)
		}))
	RegisterRef("Any", reduceKernel("Any", 0,
		func(acc, v float32) float32 { return toBool(acc != 0 || v != 0) }, nil))
	RegisterRef("All", reduceKernel("All", 1,
		func(acc, v float32) float32 { return toBool(acc != 0 && v != 0) }, nil))

	// BiasAddGrad sums the outer dimension of a [outer, inner] input — the
	// leading axes of a bias gradient, [N·H·W, C] — into [inner]: rows
	// added in order from +0, so each column meets its values in the order
	// Sum meets them after a transpose brings that column innermost.
	RegisterRef("BiasAddGrad", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		outer, inner, err := Rows("BiasAddGrad", inputsOf(inputs))
		if err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		out := NewBuffer([]int{inner}, x.DType)
		for o := 0; o < outer; o++ {
			for i, v := range x.Data[o*inner : (o+1)*inner] {
				out.Data[i] += v
			}
		}
		return out, nil
	})

	RegisterRef("ArgMax", argReduceKernel("ArgMax", func(v, best float32) bool { return v > best }))
	RegisterRef("ArgMin", argReduceKernel("ArgMin", func(v, best float32) bool { return v < best }))

	// Softmax computes a numerically stable softmax over the inner
	// dimension of a [outer, inner] input. It keeps a second body on webgl:
	// three chained programs (row max, exp-sum, normalize) whose float32
	// exp-sum is a named tolerance against this row's float64 one, and
	// three of the programs the modelled clock pins.
	RegisterRef("Softmax", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		outer, inner, err := Rows("Softmax", inputsOf(inputs))
		if err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		out := NewBuffer(x.Shape, tensor.Float32)
		for o := 0; o < outer; o++ {
			SoftmaxRow(out.Data[o*inner:(o+1)*inner], x.Data[o*inner:(o+1)*inner])
		}
		return out, nil
	})

	// CumSum computes an inclusive or exclusive cumulative sum over the
	// inner dimension of a [outer, inner] input.
	RegisterRef("CumSum", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		outer, inner, err := Rows("CumSum", inputsOf(inputs))
		if err != nil {
			return Buffer{}, err
		}
		exclusive := attrs.Bool("exclusive", false)
		reverse := attrs.Bool("reverse", false)
		x := inputs[0]
		out := NewBuffer(x.Shape, x.DType)
		for o := 0; o < outer; o++ {
			base := o * inner
			var acc float32
			for step := 0; step < inner; step++ {
				i := step
				if reverse {
					i = inner - 1 - step
				}
				if exclusive {
					out.Data[base+i] = acc
					acc += x.Data[base+i]
				} else {
					acc += x.Data[base+i]
					out.Data[base+i] = acc
				}
			}
		}
		return out, nil
	})
}

// SoftmaxRow is one row of Softmax, the reference's and native's: e^(x−max)
// per value, summed in float64, each scaled by the float32 reciprocal of the
// sum. len(dst) == len(x).
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
