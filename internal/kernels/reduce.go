package kernels

import (
	"math"

	"repro/internal/tensor"
)

// Reduction kernels operate on a canonical 2-D view [outer, inner] and
// reduce the inner dimension. The ops layer is responsible for transposing
// the reduced axes innermost and reshaping, exactly as the TensorFlow.js
// op layer does before invoking its reduction kernels. The one exception is
// BiasAddGrad, which reduces the outer dimension: a sum over leading axes
// needs no transpose.

func reduce2D(name string, inputs []Buffer) (outer, inner int, err error) {
	if err := wantInputs(name, inputs, 1); err != nil {
		return 0, 0, err
	}
	x := inputs[0]
	if x.Rank() != 2 {
		return 0, 0, errIn(name, "input must be rank 2 [outer, inner], got %v", x.Shape)
	}
	return x.Shape[0], x.Shape[1], nil
}

// reduceKernel builds a [outer, inner] -> [outer] reduction.
func reduceKernel(name string, initial float32, merge func(acc, v float32) float32, finish func(acc float32, n int) float32, dtype func(in tensor.DataType) tensor.DataType) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		outer, inner, err := reduce2D(name, inputs)
		if err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		dt := x.DType
		if dtype != nil {
			dt = dtype(x.DType)
		}
		out := NewBuffer([]int{outer}, dt)
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
		outer, inner, err := reduce2D(name, inputs)
		if err != nil {
			return Buffer{}, err
		}
		if inner == 0 {
			return Buffer{}, errIn(name, "cannot reduce over empty dimension")
		}
		x := inputs[0]
		out := NewBuffer([]int{outer}, tensor.Int32)
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
		func(acc, v float32) float32 { return acc + v }, nil, nil))
	RegisterRef("Prod", reduceKernel("Prod", 1,
		func(acc, v float32) float32 { return acc * v }, nil, nil))
	RegisterRef("Max", reduceKernel("Max", float32(math.Inf(-1)),
		func(acc, v float32) float32 {
			if v > acc {
				return v
			}
			return acc
		}, nil, nil))
	RegisterRef("Min", reduceKernel("Min", float32(math.Inf(1)),
		func(acc, v float32) float32 {
			if v < acc {
				return v
			}
			return acc
		}, nil, nil))
	RegisterRef("Mean", reduceKernel("Mean", 0,
		func(acc, v float32) float32 { return acc + v },
		func(acc float32, n int) float32 {
			if n == 0 {
				return float32(math.NaN())
			}
			return acc / float32(n)
		},
		func(tensor.DataType) tensor.DataType { return tensor.Float32 }))
	RegisterRef("Any", reduceKernel("Any", 0,
		func(acc, v float32) float32 { return toBool(acc != 0 || v != 0) }, nil,
		func(tensor.DataType) tensor.DataType { return tensor.Bool }))
	RegisterRef("All", reduceKernel("All", 1,
		func(acc, v float32) float32 { return toBool(acc != 0 && v != 0) }, nil,
		func(tensor.DataType) tensor.DataType { return tensor.Bool }))

	// BiasAddGrad sums the outer dimension of a [outer, inner] input — the
	// leading axes of a bias gradient, [N·H·W, C] — into [inner]: rows
	// added in order from +0, so each column meets its values in the order
	// Sum meets them after a transpose brings that column innermost.
	RegisterRef("BiasAddGrad", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		outer, inner, err := reduce2D("BiasAddGrad", inputs)
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
	// dimension of a [outer, inner] input.
	RegisterRef("Softmax", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		outer, inner, err := reduce2D("Softmax", inputs)
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
		outer, inner, err := reduce2D("CumSum", inputs)
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
