package kernels

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// ElementwiseOp is one element-wise operation, written once. Its entry of
// the range table is generated from it — the reference kernel, and the
// body that runs its function, or its internal/vec row where one exists,
// on native and webgl; the fused kernels' epilogue is it; and Layers, the
// graph optimizer, the plan compiler, the load-time verifier and the
// exporter read its activation name from it. Exactly one of Unary, Param
// and Binary is set.
type ElementwiseOp struct {
	Name string
	// Unary is a one-operand op's value. Param builds it from the kernel's
	// attributes (LeakyRelu's slope, ClipByValue's bounds, Step's alpha),
	// and rejects attributes that define no function.
	Unary func(x float32) float32
	Param func(Attrs) (func(x float32) float32, error)
	// Binary is a two-operand op's value, operands in input order; its
	// kernels broadcast them.
	Binary func(a, x float32) float32
	// Bool marks a predicate: its output is a bool tensor of 0s and 1s.
	// Every other op's output has its first input's dtype.
	Bool bool
	// Activation is the op's lowercase name as a Layers activation and as a
	// fused kernel's "activation" attribute ("" when it is neither). Kind is
	// the internal/vec epilogue that applies it, ActNone when the epilogue
	// applies Unary value by value.
	Activation string
	Kind       vec.Act

	// row is a one-operand op's row body under a kernel's attributes, bin a
	// two-operand op's: internal/vec's row where the op has one, else the
	// scalar function value by value.
	row func(Attrs) (func(dst, x []float32), error)
	bin func(dst, a, x []float32)
}

// The table. Its order is the order the kernels register in — after the
// range kernels, in the range table too — and the order webgl's contract
// test draws its cases in: an op is appended, never inserted.
var elementwise = []ElementwiseOp{
	{Name: "Add", Binary: func(a, x float32) float32 { return a + x }, bin: vecBinary(vec.Add)},
	{Name: "Sub", Binary: func(a, x float32) float32 { return a - x }, bin: vecBinary(vec.Sub)},
	{Name: "Mul", Binary: func(a, x float32) float32 { return a * x }, bin: vecBinary(vec.Mul)},
	{Name: "RealDiv", Binary: func(a, x float32) float32 { return a / x }, bin: vecBinary(vec.Div)},
	{Name: "Maximum", Binary: func(a, x float32) float32 {
		if a > x {
			return a
		}
		return x
	}},
	{Name: "Minimum", Binary: func(a, x float32) float32 {
		if a < x {
			return a
		}
		return x
	}},
	{Name: "Pow", Binary: func(a, x float32) float32 { return float32(math.Pow(float64(a), float64(x))) }},
	{Name: "SquaredDifference", Binary: func(a, x float32) float32 {
		d := a - x
		return d * d
	}},
	{Name: "Greater", Bool: true, Binary: func(a, x float32) float32 { return toBool(a > x) }},
	{Name: "GreaterEqual", Bool: true, Binary: func(a, x float32) float32 { return toBool(a >= x) }},
	{Name: "Less", Bool: true, Binary: func(a, x float32) float32 { return toBool(a < x) }},
	{Name: "LessEqual", Bool: true, Binary: func(a, x float32) float32 { return toBool(a <= x) }},
	{Name: "Equal", Bool: true, Binary: func(a, x float32) float32 { return toBool(a == x) }},
	{Name: "NotEqual", Bool: true, Binary: func(a, x float32) float32 { return toBool(a != x) }},
	{Name: "LogicalAnd", Bool: true, Binary: func(a, x float32) float32 { return toBool(a != 0 && x != 0) }},
	{Name: "LogicalOr", Bool: true, Binary: func(a, x float32) float32 { return toBool(a != 0 || x != 0) }},
	// Prelu is (x, alpha): element-wise with broadcasting.
	{Name: "Prelu", Binary: func(x, alpha float32) float32 {
		if x >= 0 {
			return x
		}
		return alpha * x
	}},

	{Name: "Neg", Unary: func(x float32) float32 { return -x }},
	// Abs is IEEE abs, the sign bit cleared: |−0| is +0 and a NaN loses its
	// sign. JS Math.abs, GLSL abs and math.Abs all compute that; the select
	// x < 0 ? −x : x this tier used to have kept −0.
	{Name: "Abs", Unary: func(x float32) float32 { return math.Float32frombits(math.Float32bits(x) &^ (1 << 31)) }},
	{Name: "Exp", Unary: func(x float32) float32 { return float32(math.Exp(float64(x))) }},
	{Name: "Expm1", Unary: func(x float32) float32 { return float32(math.Expm1(float64(x))) }},
	{Name: "Log", Unary: func(x float32) float32 { return float32(math.Log(float64(x))) }},
	{Name: "Log1p", Unary: func(x float32) float32 { return float32(math.Log1p(float64(x))) }},
	{Name: "Sqrt", Unary: func(x float32) float32 { return float32(math.Sqrt(float64(x))) }},
	{Name: "Rsqrt", Unary: func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) }},
	{Name: "Square", Unary: func(x float32) float32 { return x * x }},
	{Name: "Reciprocal", Unary: func(x float32) float32 { return 1 / x }},
	{Name: "Floor", Unary: func(x float32) float32 { return float32(math.Floor(float64(x))) }},
	{Name: "Ceil", Unary: func(x float32) float32 { return float32(math.Ceil(float64(x))) }},
	{Name: "Round", Unary: func(x float32) float32 { return float32(math.RoundToEven(float64(x))) }},
	{Name: "Sign", Unary: func(x float32) float32 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}},
	{Name: "Sin", Unary: func(x float32) float32 { return float32(math.Sin(float64(x))) }},
	{Name: "Cos", Unary: func(x float32) float32 { return float32(math.Cos(float64(x))) }},
	{Name: "Tan", Unary: func(x float32) float32 { return float32(math.Tan(float64(x))) }},
	{Name: "Tanh", Activation: "tanh", Unary: func(x float32) float32 { return float32(math.Tanh(float64(x))) }},
	{Name: "Sigmoid", Activation: "sigmoid", Unary: func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	}},
	{Name: "Softplus", Activation: "softplus", Unary: func(x float32) float32 {
		return float32(math.Log1p(math.Exp(float64(x))))
	}},
	// The ReLU family's kernels run internal/vec's branch-free rows, which
	// are bit-equal to these selects.
	{Name: "Relu", Activation: "relu", Kind: vec.ActRelu, row: fixedRow(vec.Relu), Unary: func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	}},
	{Name: "Relu6", Activation: "relu6", Kind: vec.ActRelu6, row: fixedRow(vec.Relu6), Unary: func(x float32) float32 {
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
		return x
	}},
	{Name: "Elu", Activation: "elu", Unary: func(x float32) float32 {
		if x >= 0 {
			return x
		}
		return float32(math.Expm1(float64(x)))
	}},

	{Name: "ClipByValue", Param: func(attrs Attrs) (func(float32) float32, error) {
		lo, hi := float32(attrs.ClipMin), float32(attrs.ClipMax)
		// Inverted bounds are an error on every tier, not a clamp that
		// depends on which bound a kernel tests first.
		if lo > hi {
			return nil, errIn("ClipByValue", "clipValueMin %g > clipValueMax %g", lo, hi)
		}
		return func(x float32) float32 {
			switch {
			case x < lo:
				return lo
			case x > hi:
				return hi
			}
			return x
		}, nil
	}},
	{Name: "LeakyRelu", Param: func(attrs Attrs) (func(float32) float32, error) {
		alpha := float32(attrs.Alpha)
		return func(x float32) float32 {
			if x >= 0 {
				return x
			}
			return alpha * x
		}, nil
	}},
	// Step(x) = x > 0 ? 1 : alpha, a NaN passing through: the mask of the
	// ReLU family's gradients, on vec.Step's row in the kernels.
	{Name: "Step", Param: func(attrs Attrs) (func(float32) float32, error) {
		alpha := float32(attrs.Alpha)
		return func(x float32) float32 {
			switch {
			case x != x:
				return x
			case x > 0:
				return 1
			}
			return alpha
		}, nil
	}, row: func(attrs Attrs) (func(dst, x []float32), error) {
		alpha := float32(attrs.Alpha)
		return func(dst, x []float32) { vec.Step(dst, x, alpha) }, nil
	}},

	{Name: "Atan2", Binary: func(a, x float32) float32 { return float32(math.Atan2(float64(a), float64(x))) }},
	{Name: "FloorDiv", Binary: func(a, x float32) float32 { return float32(math.Floor(float64(a) / float64(x))) }},
	// Mod takes the divisor's sign, as Python's % and TensorFlow's FloorMod.
	{Name: "Mod", Binary: func(a, x float32) float32 {
		m := float32(math.Mod(float64(a), float64(x)))
		if m != 0 && (m < 0) != (x < 0) {
			m += x
		}
		return m
	}},
	{Name: "IsNaN", Bool: true, Unary: func(x float32) float32 { return toBool(x != x) }},
	{Name: "IsInf", Bool: true, Unary: func(x float32) float32 { return toBool(math.IsInf(float64(x), 0)) }},
	{Name: "LogicalNot", Bool: true, Unary: func(x float32) float32 { return toBool(x == 0) }},
}

var (
	elementwiseOps []*ElementwiseOp
	byName         = map[string]*ElementwiseOp{}
	byActivation   = map[string]*ElementwiseOp{"": nil, "linear": nil}
)

func init() {
	for i := range elementwise {
		op := &elementwise[i]
		elementwiseOps = append(elementwiseOps, op)
		byName[op.Name] = op
		if op.Activation != "" {
			byActivation[op.Activation] = op
		}
		switch {
		case op.Binary != nil && op.bin == nil:
			op.bin = scalarBinary(op.Binary)
		case op.Binary == nil && op.row == nil:
			op.row = scalarRow(op)
		}
	}
}

// elementwiseKernels are the table's ops as entries of the range table, in
// table order, each with its reference kernel.
func elementwiseKernels() []RangeKernel {
	entries := make([]RangeKernel, len(elementwise))
	for i := range elementwise {
		op := &elementwise[i]
		entries[i] = RangeKernel{Name: op.Name, Resolve: op.resolve}
		if op.Binary != nil {
			entries[i].Sampled, entries[i].Ref = SamplesBroadcasts, binaryRef(op)
		} else {
			entries[i].Ref = unaryRef(op)
		}
	}
	return entries
}

// ElementwiseOps returns the table, in table order.
func ElementwiseOps() []*ElementwiseOp { return elementwiseOps }

// LookupElementwise returns the table entry of kernel name.
func LookupElementwise(name string) (*ElementwiseOp, bool) {
	op, ok := byName[name]
	return op, ok
}

// Activation resolves an activation name — a Layers activation, a fused
// kernel's "activation" attribute — to its table entry: nil for the
// identity ("" or "linear"), and false for a name the table does not have.
// Softmax, the one activation that is not element-wise, is not here.
func Activation(name string) (*ElementwiseOp, bool) {
	op, ok := byActivation[name]
	return op, ok
}

// DType is the op's output dtype when its first input has dtype in.
func (op *ElementwiseOp) DType(in tensor.DataType) tensor.DataType {
	if op.Bool {
		return tensor.Bool
	}
	return in
}

// Check is the one check of a call of op, which its reference kernel, its
// range-table entry and the cpu tier's kernel all run: the call's arity
// and its operands' broadcast shape, worded as the reference words them.
// It describes the output's shape and dtype (DType) in out.
func (op *ElementwiseOp) Check(inputs []Input, out *TensorInfo) error {
	if op.Binary == nil {
		if err := wantInputs(op.Name, inputs, 1); err != nil {
			return err
		}
		out.Shape = append(out.Shape[:0], inputs[0].Shape...)
	} else {
		if err := wantInputs(op.Name, inputs, 2); err != nil {
			return err
		}
		shape, err := tensor.AppendBroadcast(out.Shape[:0], inputs[0].Shape, inputs[1].Shape)
		if err != nil {
			return errIn(op.Name, "%v", err)
		}
		out.Shape = shape
	}
	out.DType = op.DType(inputs[0].DType)
	return nil
}

// resolve is op's entry of the range table. A one-operand op's body is its
// row over the range; a two-operand op's is its row too when each operand
// is a suffix period of the output (SuffixPeriod) — the shorter one, the
// repeated row, is native's chunk unit — and the general broadcast
// (Broadcast) otherwise. Per value it fetches each operand and performs
// the operation.
func (op *ElementwiseOp) resolve(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	if err := op.Check(inputs, out); err != nil {
		return Range{}, err
	}
	size := tensor.ShapeSize(out.Shape)
	if op.Binary == nil {
		row, err := op.row(attrs)
		if err != nil {
			return Range{}, err
		}
		return Range{Fill: func(in [][]float32, lo int, dst []float32) { row(dst, in[0][lo:lo+len(dst)]) },
			Work: PerValue(size, 1, 1)}, nil
	}
	r := Range{Work: PerValue(size, 2, 1)}
	a, x := inputs[0].Shape, inputs[1].Shape
	if row := suffixRow(out.Shape, a, x); row > 0 {
		if row < size {
			r.Unit = row
		}
		r.Fill = suffixRows(op.bin, SuffixPeriod(a, out.Shape), SuffixPeriod(x, out.Shape))
		return r, nil
	}
	g, f := NewBroadcast(a, x, out.Shape), op.Binary
	r.Fill = func(in [][]float32, lo int, dst []float32) { g.Fill(f, in[0], in[1], lo, dst) }
	return r, nil
}

// suffixRows is the body of a two-operand op whose operands repeat along
// its output every pa and px values (SuffixPeriod): the longer one is as
// long as the output, the shorter a row repeated along it. bin is the op's
// row, each operand as long as dst or a row repeated along it:
//
//	dst[i] = f(a[i%len(a)], x[i%len(x)])
//
// A range that begins inside a row runs the rest of that row first. An
// operand's buffer may be longer than its values (a texture's padding).
// The body captures the periods as int32s, which keeps it, allocated per
// dispatch, in the allocator's 24-byte class.
func suffixRows(bin func(dst, a, x []float32), pa, px int) Fill {
	p, q := int32(pa), int32(px)
	return func(in [][]float32, lo int, dst []float32) {
		pa, px := int(p), int(q)
		size, row := max(pa, px), min(pa, px)
		a, x := in[0][:pa], in[1][:px]
		if head := min((row-lo%row)%row, len(dst)); head > 0 {
			bin(dst[:head], valuesFrom(a, size, lo, head), valuesFrom(x, size, lo, head))
			lo, dst = lo+head, dst[head:]
		}
		bin(dst, valuesFrom(a, size, lo, len(dst)), valuesFrom(x, size, lo, len(dst)))
	}
}

// valuesFrom is an operand's values for the n output values from lo on: n of
// them from an operand as long as the output, the rest of its row from
// lo's place in it from a repeated row.
func valuesFrom(operand []float32, size, lo, n int) []float32 {
	if len(operand) == size {
		return operand[lo : lo+n]
	}
	return operand[lo%len(operand):]
}

func vecBinary(o vec.BinOp) func(dst, a, x []float32) {
	return func(dst, a, x []float32) { vec.Binary(o, dst, a, x) }
}

func fixedRow(row func(dst, x []float32)) func(Attrs) (func(dst, x []float32), error) {
	return func(Attrs) (func(dst, x []float32), error) { return row, nil }
}

func perValue(f func(float32) float32) func(dst, x []float32) {
	return func(dst, x []float32) {
		for i, v := range x {
			dst[i] = f(v)
		}
	}
}

// scalarRow is the row of an op without a vec row. Without attributes it
// is built once, so a kernel takes it without allocating.
func scalarRow(op *ElementwiseOp) func(Attrs) (func(dst, x []float32), error) {
	if op.Param == nil {
		return fixedRow(perValue(op.Unary))
	}
	return func(attrs Attrs) (func(dst, x []float32), error) {
		f, err := op.Param(attrs)
		if err != nil {
			return nil, err
		}
		return perValue(f), nil
	}
}

func scalarBinary(f func(a, x float32) float32) func(dst, a, x []float32) {
	return func(dst, a, x []float32) {
		ia, ix := 0, 0
		for i := range dst {
			dst[i] = f(a[ia], x[ix])
			if ia++; ia == len(a) {
				ia = 0
			}
			if ix++; ix == len(x) {
				ix = 0
			}
		}
	}
}

// unaryRef is the reference kernel of a one-operand op.
func unaryRef(op *ElementwiseOp) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		if err := op.Check(inputsOf(inputs), &res); err != nil {
			return Buffer{}, err
		}
		f := op.Unary
		if op.Param != nil {
			var err error
			if f, err = op.Param(attrs); err != nil {
				return Buffer{}, err
			}
		}
		out := NewBuffer(res.Shape, res.DType)
		for i, v := range inputs[0].Data {
			out.Data[i] = f(v)
		}
		return out, nil
	}
}

// binaryRef is the broadcasting reference kernel of a two-operand op.
func binaryRef(op *ElementwiseOp) RefKernel {
	f := op.Binary
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		if err := op.Check(inputsOf(inputs), &res); err != nil {
			return Buffer{}, err
		}
		a, b, outShape := inputs[0], inputs[1], res.Shape
		out := NewBuffer(outShape, res.DType)
		if tensor.ShapesEqual(a.Shape, b.Shape) {
			for i := range out.Data {
				out.Data[i] = f(a.Data[i], b.Data[i])
			}
			return out, nil
		}
		odometer(outShape, broadcastStrides(a.Shape, outShape), broadcastStrides(b.Shape, outShape), func(oi, ai, bi int) {
			out.Data[oi] = f(a.Data[ai], b.Data[bi])
		})
		return out, nil
	}
}

func toBool(cond bool) float32 {
	if cond {
		return 1
	}
	return 0
}
