package webgl

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The fragment-shader contract (Figure 4: main() runs per output value, in
// parallel, with no shared state) used to be structural: a program was a
// function of one texel index. Programs are now functions of a texel
// *range*, so the contract is tested instead. Every kernel in
// Backend.kernelsTable — the registry kernelparity reads, so a newly
// registered kernel fails TestKernelContract until it has a case here —
// runs on a representative and an awkward shape on devices with 1, 3 and 7
// workers × packed/unpacked × fp32/fp16 × squeeze on/off. The output
// texture must be Float32bits-equal across worker counts (chunk boundaries
// fall mid-pixel and mid-row, so a program that carries state from one
// value to the next fails) and equal to the golden recorded at the commit
// before the range form existed (testdata/contract_golden.json).

var updateGoldens = flag.Bool("update", false, "rewrite testdata/*_golden.json from this build's outputs")

const contractGoldenFile = "testdata/contract_golden.json"

// cin is one kernel input of a contract case.
type cin struct {
	shape []int
	dtype tensor.DataType
	vals  []float32
}

type contractCase struct {
	label  string
	inputs []cin
	attrs  kernels.Attrs
}

func shapeOf(dims ...int) []int { return dims }

// rnd is a float32 input of standard-normal values.
func rnd(rng *rand.Rand, shape ...int) cin {
	vals := make([]float32, tensor.ShapeSize(shape))
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	return cin{shape: shape, dtype: tensor.Float32, vals: vals}
}

// pos is a float32 input of values in (0.5, 1.5): variances, Log/Sqrt/Pow
// operands.
func pos(rng *rand.Rand, shape ...int) cin {
	c := rnd(rng, shape...)
	for i := range c.vals {
		c.vals[i] = 0.5 + float32(rng.Float64())
	}
	return c
}

// idx is an int32 input of indices in [0, n).
func idx(rng *rand.Rand, n int, shape ...int) cin {
	vals := make([]float32, tensor.ShapeSize(shape))
	for i := range vals {
		vals[i] = float32(rng.Intn(n))
	}
	return cin{shape: shape, dtype: tensor.Int32, vals: vals}
}

// flags is a bool input.
func flags(rng *rand.Rand, shape ...int) cin {
	c := idx(rng, 2, shape...)
	c.dtype = tensor.Bool
	return c
}

// special overwrites the head of c with the values that break careless
// float code: NaN, ±Inf, −0 and a denormal.
func special(c cin) cin {
	sp := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 1e-40, -1e-40, 0, 65520, -7,
	}
	for i := 0; i < len(c.vals); i++ {
		if i%3 == 0 {
			c.vals[i] = sp[(i/3)%len(sp)]
		}
	}
	return c
}

func convAttrs(strides, dilations []int, pad string) kernels.Attrs {
	return kernels.Attrs{"strides": strides, "dilations": dilations, "pad": pad}
}

func withAct(a kernels.Attrs, act string) kernels.Attrs {
	a["activation"] = act
	return a
}

// contractCases is the table: every registered kernel must have an entry.
func contractCases() map[string][]contractCase {
	rng := rand.New(rand.NewSource(20190331))
	cases := map[string][]contractCase{}
	add := func(name string, cs ...contractCase) { cases[name] = append(cases[name], cs...) }

	binary := []string{"Add", "Sub", "Mul", "RealDiv", "Maximum", "Minimum", "Pow", "SquaredDifference",
		"Greater", "GreaterEqual", "Less", "LessEqual", "Equal", "NotEqual", "LogicalAnd", "LogicalOr", "Prelu"}
	for _, name := range binary {
		gen := rnd
		if name == "Pow" {
			gen = pos
		}
		add(name,
			contractCase{"same", []cin{gen(rng, 2, 3, 8), gen(rng, 2, 3, 8)}, nil},
			contractCase{"sameOdd", []cin{gen(rng, 3, 5, 7), gen(rng, 3, 5, 7)}, nil},
			contractCase{"suffixC", []cin{gen(rng, 2, 3, 3, 9), gen(rng, 9)}, nil},
			contractCase{"suffixSwapped", []cin{gen(rng, 17), gen(rng, 3, 5, 17)}, nil},
			contractCase{"suffix1C", []cin{gen(rng, 4, 3), gen(rng, 1, 3)}, nil},
			contractCase{"suffix111C", []cin{gen(rng, 2, 2, 3, 5), gen(rng, 1, 1, 1, 5)}, nil},
			contractCase{"suffixHWC", []cin{gen(rng, 2, 3, 5), gen(rng, 3, 5)}, nil},
			contractCase{"scalar", []cin{gen(rng, 3, 7), gen(rng)}, nil},
			contractCase{"scalarFirst", []cin{gen(rng), gen(rng, 3, 7)}, nil},
			contractCase{"one", []cin{gen(rng, 3, 7), gen(rng, 1)}, nil},
			contractCase{"nonSuffix", []cin{gen(rng, 2, 5, 3), gen(rng, 5, 1)}, nil},
			contractCase{"bothBroadcast", []cin{gen(rng, 5, 1), gen(rng, 1, 7)}, nil},
			contractCase{"squeezy", []cin{gen(rng, 1, 6, 1, 5), gen(rng, 1, 6, 1, 1)}, nil},
			contractCase{"zero", []cin{gen(rng, 0, 4), gen(rng, 4)}, nil},
		)
	}

	unary := []string{"Neg", "Abs", "Exp", "Expm1", "Log", "Log1p", "Sqrt", "Rsqrt", "Square", "Reciprocal",
		"Floor", "Ceil", "Round", "Sign", "Sin", "Cos", "Tan", "Tanh", "Sigmoid", "Softplus", "Relu", "Relu6", "Elu"}
	for _, name := range unary {
		add(name,
			contractCase{"rep", []cin{rnd(rng, 2, 3, 8)}, nil},
			contractCase{"odd", []cin{rnd(rng, 3, 5, 7)}, nil},
			contractCase{"zero", []cin{rnd(rng, 0, 7)}, nil},
		)
	}
	add("Relu6", contractCase{"special", []cin{special(rnd(rng, 5, 9))}, nil})
	for _, c := range []struct {
		name  string
		attrs kernels.Attrs
	}{
		{"ClipByValue", kernels.Attrs{"clipValueMin": -0.5, "clipValueMax": 0.25}},
		{"LeakyRelu", kernels.Attrs{"alpha": 0.1}},
		{"Step", kernels.Attrs{"alpha": 0.5}},
	} {
		add(c.name,
			contractCase{"rep", []cin{rnd(rng, 2, 3, 8)}, c.attrs},
			contractCase{"special", []cin{special(rnd(rng, 3, 5, 7))}, c.attrs},
			contractCase{"zero", []cin{rnd(rng, 0, 7)}, c.attrs},
		)
	}

	add("Fill",
		contractCase{"rep", nil, kernels.Attrs{"shape": []int{3, 5}, "value": 2.5, "dtype": "float32"}},
		contractCase{"odd", nil, kernels.Attrs{"shape": []int{1, 7, 1, 3}, "value": -1.0, "dtype": "int32"}},
		contractCase{"zero", nil, kernels.Attrs{"shape": []int{0, 3}, "value": 1.0, "dtype": "float32"}},
	)
	add("Select",
		contractCase{"same", []cin{flags(rng, 3, 5, 7), rnd(rng, 3, 5, 7), rnd(rng, 3, 5, 7)}, nil},
		contractCase{"bcast", []cin{flags(rng, 5, 1), rnd(rng, 3, 5, 7), rnd(rng, 7)}, nil},
		contractCase{"zero", []cin{flags(rng, 0, 3), rnd(rng, 0, 3), rnd(rng, 3)}, nil},
	)

	bn := func(label string, x cin, p ...int) contractCase {
		return contractCase{label, []cin{x, rnd(rng, p...), pos(rng, p...), rnd(rng, p...), rnd(rng, p...)},
			kernels.Attrs{"varianceEpsilon": 1e-3}}
	}
	add("FusedBatchNorm",
		bn("rep", rnd(rng, 2, 5, 5, 8), 8),
		bn("c9", rnd(rng, 2, 3, 3, 9), 9),
		bn("c1", rnd(rng, 1, 7, 3, 1), 1),
		bn("c17of111C", rnd(rng, 1, 3, 3, 17), 1, 1, 1, 17),
		bn("rank2", rnd(rng, 5, 3), 3),
		bn("nonSuffix", rnd(rng, 2, 3, 5, 3), 5, 1),
		bn("zero", rnd(rng, 0, 3, 3, 4), 4),
		bn("special", special(rnd(rng, 1, 4, 4, 3)), 3),
	)
	// A scalar batch norm and one with mixed operand shapes: suffix and
	// non-suffix operands in one program.
	add("FusedBatchNorm",
		contractCase{"scalars", []cin{rnd(rng, 3, 7), rnd(rng), pos(rng), rnd(rng), rnd(rng)}, kernels.Attrs{"varianceEpsilon": 1e-3}},
		contractCase{"mixed", []cin{rnd(rng, 2, 5, 3), rnd(rng, 3), pos(rng, 5, 1), rnd(rng, 1, 3), rnd(rng)}, kernels.Attrs{"varianceEpsilon": 1e-5}},
	)

	mm := func(ta, tb bool) kernels.Attrs { return kernels.Attrs{"transposeA": ta, "transposeB": tb} }
	add("BatchMatMul",
		contractCase{"rep", []cin{rnd(rng, 2, 5, 7), rnd(rng, 2, 7, 8)}, mm(false, false)},
		contractCase{"oddN", []cin{rnd(rng, 2, 5, 7), rnd(rng, 2, 7, 6)}, mm(false, false)},
		contractCase{"n1", []cin{rnd(rng, 1, 9, 3), rnd(rng, 1, 3, 1)}, mm(false, false)},
		contractCase{"bcastA", []cin{rnd(rng, 1, 3, 9), rnd(rng, 3, 9, 5)}, mm(false, false)},
		contractCase{"bcastB", []cin{rnd(rng, 3, 3, 9), rnd(rng, 1, 9, 5)}, mm(false, false)},
		contractCase{"ta", []cin{rnd(rng, 2, 7, 5), rnd(rng, 2, 7, 6)}, mm(true, false)},
		contractCase{"tb", []cin{rnd(rng, 2, 5, 7), rnd(rng, 2, 6, 7)}, mm(false, true)},
		contractCase{"tatb", []cin{rnd(rng, 1, 7, 5), rnd(rng, 1, 3, 7)}, mm(true, true)},
		contractCase{"zero", []cin{rnd(rng, 0, 3, 4), rnd(rng, 0, 4, 5)}, mm(false, false)},
		contractCase{"k0", []cin{rnd(rng, 1, 3, 0), rnd(rng, 1, 0, 5)}, mm(false, false)},
	)
	fmm := func(ta, tb bool, act string) kernels.Attrs { return withAct(mm(ta, tb), act) }
	add("_FusedMatMul",
		contractCase{"rep", []cin{rnd(rng, 5, 7), rnd(rng, 7, 8), rnd(rng, 8)}, fmm(false, false, "relu")},
		contractCase{"noBias", []cin{rnd(rng, 5, 7), rnd(rng, 7, 6)}, fmm(false, false, "")},
		contractCase{"dense", []cin{rnd(rng, 1, 17), rnd(rng, 17, 9), rnd(rng, 9)}, fmm(false, false, "relu6")},
		contractCase{"ta", []cin{rnd(rng, 7, 5), rnd(rng, 7, 6), rnd(rng, 6)}, fmm(true, false, "tanh")},
		contractCase{"tb", []cin{rnd(rng, 5, 7), rnd(rng, 6, 7), rnd(rng, 6)}, fmm(false, true, "sigmoid")},
		contractCase{"zero", []cin{rnd(rng, 0, 4), rnd(rng, 4, 5), rnd(rng, 5)}, fmm(false, false, "elu")},
	)

	s11, s22, d11, d22 := []int{1, 1}, []int{2, 2}, []int{1, 1}, []int{2, 2}
	convs := []contractCase{
		{"rep", []cin{rnd(rng, 2, 9, 9, 3), rnd(rng, 3, 3, 3, 4)}, convAttrs(s22, d11, "same")},
		{"valid", []cin{rnd(rng, 2, 9, 9, 3), rnd(rng, 3, 3, 3, 4)}, convAttrs(s11, d11, "valid")},
		{"pointwise", []cin{rnd(rng, 1, 6, 6, 8), rnd(rng, 1, 1, 8, 16)}, convAttrs(s11, d11, "same")},
		{"c1", []cin{rnd(rng, 1, 5, 7, 1), rnd(rng, 3, 3, 1, 1)}, convAttrs(s11, d11, "same")},
		{"c9to17", []cin{rnd(rng, 1, 10, 7, 9), rnd(rng, 3, 2, 9, 17)}, convAttrs(s22, d22, "same")},
		{"dilated", []cin{rnd(rng, 1, 9, 9, 3), rnd(rng, 3, 3, 3, 5)}, convAttrs(s11, d22, "same")},
		{"rectStride", []cin{rnd(rng, 2, 8, 11, 3), rnd(rng, 2, 3, 3, 3)}, convAttrs([]int{2, 1}, []int{1, 2}, "same")},
		{"zero", []cin{rnd(rng, 0, 5, 5, 3), rnd(rng, 3, 3, 3, 4)}, convAttrs(s11, d11, "same")},
		{"special", []cin{special(rnd(rng, 1, 5, 5, 3)), rnd(rng, 3, 3, 3, 4)}, convAttrs(s11, d11, "same")},
	}
	add("Conv2D", convs...)
	for i, c := range convs {
		outC := c.inputs[1].shape[3]
		fc := contractCase{c.label, append(append([]cin{}, c.inputs...), rnd(rng, outC)),
			withAct(convAttrs(c.attrs.Ints("strides", nil), c.attrs.Ints("dilations", nil), c.attrs.String("pad", "")),
				[]string{"relu6", "relu", "", "elu"}[i%4])}
		add("FusedConv2D", fc)
	}
	add("FusedConv2D", contractCase{"noBias", []cin{rnd(rng, 1, 6, 6, 8), rnd(rng, 1, 1, 8, 16)}, withAct(convAttrs(s11, d11, "same"), "relu6")})

	dws := []contractCase{
		{"rep", []cin{rnd(rng, 2, 9, 9, 3), rnd(rng, 3, 3, 3, 1)}, convAttrs(s11, d11, "same")},
		{"mult2", []cin{rnd(rng, 2, 9, 9, 3), rnd(rng, 3, 3, 3, 2)}, convAttrs(s22, d11, "same")},
		{"c17", []cin{rnd(rng, 1, 7, 5, 17), rnd(rng, 3, 3, 17, 1)}, convAttrs(s22, d22, "same")},
		{"c1mult2valid", []cin{rnd(rng, 1, 6, 6, 1), rnd(rng, 2, 2, 1, 2)}, convAttrs(s11, d11, "valid")},
		{"dilated", []cin{rnd(rng, 1, 9, 9, 9), rnd(rng, 3, 3, 9, 2)}, convAttrs(s11, d22, "same")},
		{"zero", []cin{rnd(rng, 0, 5, 5, 3), rnd(rng, 3, 3, 3, 2)}, convAttrs(s11, d11, "same")},
		{"special", []cin{special(rnd(rng, 1, 5, 5, 3)), rnd(rng, 3, 3, 3, 1)}, convAttrs(s11, d11, "same")},
	}
	add("DepthwiseConv2dNative", dws...)
	for i, c := range dws {
		outC := c.inputs[1].shape[2] * c.inputs[1].shape[3]
		add("FusedDepthwiseConv2dNative", contractCase{c.label, append(append([]cin{}, c.inputs...), rnd(rng, outC)),
			withAct(convAttrs(c.attrs.Ints("strides", nil), c.attrs.Ints("dilations", nil), c.attrs.String("pad", "")),
				[]string{"relu6", "", "relu", "sigmoid"}[i%4])})
	}
	add("FusedDepthwiseConv2dNative", contractCase{"noBias", []cin{rnd(rng, 1, 6, 6, 4), rnd(rng, 3, 3, 4, 1)}, withAct(convAttrs(s11, d11, "same"), "relu6")})

	poolAttrs := func(f, s []int, pad string) kernels.Attrs {
		return kernels.Attrs{"filterSize": f, "strides": s, "pad": pad}
	}
	for _, name := range []string{"MaxPool", "AvgPool"} {
		add(name,
			contractCase{"rep", []cin{rnd(rng, 2, 9, 9, 3)}, poolAttrs([]int{2, 2}, []int{2, 2}, "same")},
			contractCase{"c17", []cin{rnd(rng, 1, 7, 5, 17)}, poolAttrs([]int{3, 3}, []int{2, 2}, "same")},
			contractCase{"valid", []cin{rnd(rng, 2, 9, 9, 3)}, poolAttrs([]int{3, 3}, []int{1, 1}, "valid")},
			contractCase{"global", []cin{rnd(rng, 2, 3, 3, 9)}, poolAttrs([]int{3, 3}, []int{3, 3}, "valid")},
			contractCase{"zero", []cin{rnd(rng, 0, 4, 4, 3)}, poolAttrs([]int{2, 2}, []int{2, 2}, "valid")},
			contractCase{"special", []cin{special(rnd(rng, 1, 5, 5, 3))}, poolAttrs([]int{2, 2}, []int{1, 1}, "same")},
		)
	}

	for _, name := range []string{"Sum", "Mean", "Max", "Min", "Prod"} {
		add(name,
			contractCase{"rep", []cin{rnd(rng, 5, 8)}, nil},
			contractCase{"odd", []cin{rnd(rng, 3, 17)}, nil},
			contractCase{"inner1", []cin{rnd(rng, 9, 1)}, nil},
			contractCase{"zero", []cin{rnd(rng, 0, 4)}, nil},
		)
	}
	for _, name := range []string{"ArgMax", "ArgMin"} {
		add(name,
			contractCase{"rep", []cin{rnd(rng, 5, 8)}, nil},
			contractCase{"odd", []cin{rnd(rng, 3, 17)}, nil},
			contractCase{"zero", []cin{rnd(rng, 0, 4)}, nil},
		)
	}
	add("Softmax",
		contractCase{"rep", []cin{rnd(rng, 5, 8)}, nil},
		contractCase{"odd", []cin{rnd(rng, 3, 17)}, nil},
		contractCase{"zero", []cin{rnd(rng, 0, 4)}, nil},
	)

	add("Transpose",
		contractCase{"rep", []cin{rnd(rng, 2, 3, 4)}, kernels.Attrs{"perm": []int{2, 0, 1}}},
		contractCase{"squeezy", []cin{rnd(rng, 1, 5, 1, 3)}, kernels.Attrs{"perm": []int{3, 1, 2, 0}}},
		contractCase{"zero", []cin{rnd(rng, 0, 3)}, kernels.Attrs{"perm": []int{1, 0}}},
	)
	add("PadV2",
		contractCase{"rep", []cin{rnd(rng, 5, 7)}, kernels.Attrs{"paddings": []int{1, 2, 0, 3}, "constantValue": 0.5}},
		contractCase{"rank4", []cin{rnd(rng, 1, 3, 3, 5)}, kernels.Attrs{"paddings": []int{0, 0, 1, 1, 2, 0, 0, 0}, "constantValue": 0.0}},
		contractCase{"zero", []cin{rnd(rng, 0, 3)}, kernels.Attrs{"paddings": []int{0, 0, 1, 1}, "constantValue": 1.0}},
	)
	add("Slice",
		contractCase{"rep", []cin{rnd(rng, 2, 3, 4)}, kernels.Attrs{"begin": []int{0, 1, 1}, "size": []int{2, 2, -1}}},
		contractCase{"squeezy", []cin{rnd(rng, 3, 5, 1, 7)}, kernels.Attrs{"begin": []int{1, 0, 0, 2}, "size": []int{1, 5, 1, 3}}},
		contractCase{"zero", []cin{rnd(rng, 4, 3)}, kernels.Attrs{"begin": []int{1, 0}, "size": []int{0, 3}}},
	)
	add("Concat",
		contractCase{"rep", []cin{rnd(rng, 5, 7), rnd(rng, 5, 2)}, kernels.Attrs{"axis": 1}},
		contractCase{"three", []cin{rnd(rng, 2, 3, 3), rnd(rng, 1, 3, 3), rnd(rng, 4, 3, 3)}, kernels.Attrs{"axis": 0}},
		contractCase{"negAxis", []cin{rnd(rng, 2, 3, 1), rnd(rng, 2, 3, 4)}, kernels.Attrs{"axis": -1}},
		contractCase{"zero", []cin{rnd(rng, 0, 3), rnd(rng, 0, 2)}, kernels.Attrs{"axis": 1}},
	)
	add("GatherV2",
		contractCase{"rep", []cin{rnd(rng, 5, 7), idx(rng, 5, 4)}, kernels.Attrs{"axis": 0}},
		contractCase{"axis1", []cin{rnd(rng, 3, 9, 5), idx(rng, 9, 2, 3)}, kernels.Attrs{"axis": 1}},
		contractCase{"zero", []cin{rnd(rng, 5, 7), idx(rng, 5, 0)}, kernels.Attrs{"axis": 0}},
	)
	add("OneHot",
		contractCase{"rep", []cin{idx(rng, 5, 3)}, kernels.Attrs{"depth": 5}},
		contractCase{"odd", []cin{idx(rng, 7, 3, 3)}, kernels.Attrs{"depth": 7, "onValue": 2.0, "offValue": -1.0}},
		contractCase{"zero", []cin{idx(rng, 5, 0)}, kernels.Attrs{"depth": 5}},
	)
	add("Tile",
		contractCase{"rep", []cin{rnd(rng, 2, 3)}, kernels.Attrs{"reps": []int{2, 3}}},
		contractCase{"odd", []cin{rnd(rng, 1, 3, 5)}, kernels.Attrs{"reps": []int{3, 1, 2}}},
		contractCase{"zero", []cin{rnd(rng, 0, 3)}, kernels.Attrs{"reps": []int{2, 2}}},
	)

	// Backward programs. dy's shape is the forward output shape.
	grad := func(inShape, filter, strides []int, pad string, depthwise bool) (dyShape []int, attrs kernels.Attrs) {
		info, err := kernels.ComputeConv2DInfo(inShape, filter, strides, d11, pad, depthwise)
		if err != nil {
			panic(err)
		}
		return info.OutShape(), kernels.Attrs{"strides": strides, "dilations": d11, "pad": pad, "inputShape": inShape, "filterShape": filter}
	}
	for _, g := range []struct {
		label          string
		in, f, strides []int
		pad            string
	}{
		{"rep", shapeOf(2, 6, 6, 3), shapeOf(3, 3, 3, 4), s11, "same"},
		{"stride2", shapeOf(1, 7, 5, 3), shapeOf(3, 3, 3, 5), s22, "same"},
		{"valid", shapeOf(2, 6, 6, 1), shapeOf(2, 2, 1, 9), s11, "valid"},
		{"zero", shapeOf(0, 4, 4, 3), shapeOf(3, 3, 3, 2), s11, "same"},
	} {
		dy, attrs := grad(g.in, g.f, g.strides, g.pad, false)
		add("Conv2DBackpropInput", contractCase{g.label, []cin{rnd(rng, dy...), rnd(rng, g.f...)}, attrs})
		add("Conv2DBackpropFilter", contractCase{g.label, []cin{rnd(rng, g.in...), rnd(rng, dy...)}, attrs})
	}
	for _, g := range []struct {
		label          string
		in, f, strides []int
		pad            string
	}{
		{"rep", shapeOf(2, 6, 6, 3), shapeOf(3, 3, 3, 1), s11, "same"},
		{"mult2", shapeOf(1, 7, 5, 3), shapeOf(3, 3, 3, 2), s22, "same"},
		{"valid", shapeOf(2, 6, 6, 9), shapeOf(2, 2, 9, 1), s11, "valid"},
		{"zero", shapeOf(0, 4, 4, 3), shapeOf(3, 3, 3, 2), s11, "same"},
	} {
		dy, attrs := grad(g.in, g.f, g.strides, g.pad, true)
		add("DepthwiseConv2dNativeBackpropInput", contractCase{g.label, []cin{rnd(rng, dy...), rnd(rng, g.f...)}, attrs})
		add("DepthwiseConv2dNativeBackpropFilter", contractCase{g.label, []cin{rnd(rng, g.in...), rnd(rng, dy...)}, attrs})
	}
	for _, g := range []struct {
		label         string
		in, f, stride []int
		pad           string
	}{
		{"rep", shapeOf(2, 6, 6, 3), shapeOf(2, 2), s22, "valid"},
		{"overlap", shapeOf(1, 7, 5, 9), shapeOf(3, 3), s22, "same"},
		{"stride1", shapeOf(1, 5, 5, 1), shapeOf(2, 2), s11, "same"},
		{"zero", shapeOf(0, 4, 4, 3), shapeOf(2, 2), s22, "valid"},
	} {
		info, err := kernels.ComputePool2DInfo(g.in, g.f, g.stride, g.pad)
		if err != nil {
			panic(err)
		}
		attrs := kernels.Attrs{"filterSize": g.f, "strides": g.stride, "pad": g.pad, "inputShape": g.in}
		// Ties make MaxPoolGrad's first-argmax rule matter: quantise x.
		x := rnd(rng, g.in...)
		for i := range x.vals {
			x.vals[i] = float32(math.Round(float64(x.vals[i]) * 2))
		}
		add("MaxPoolGrad", contractCase{g.label, []cin{rnd(rng, info.OutShape()...), x}, attrs})
		add("AvgPoolGrad", contractCase{g.label, []cin{rnd(rng, info.OutShape()...)}, attrs})
	}

	// A training step's tail: the bias gradient's sum over leading axes, and
	// Adam's moments and update. The moments' slot is m ‖ v; its v half is
	// kept positive, as a second moment is. These come last so that no
	// earlier case's random draws move.
	add("BiasAddGrad",
		contractCase{"rep", []cin{rnd(rng, 64, 8)}, nil},
		contractCase{"wide", []cin{rnd(rng, 9, 45)}, nil},
		contractCase{"odd", []cin{special(rnd(rng, 7, 3))}, nil},
		contractCase{"zeroRows", []cin{rnd(rng, 0, 5)}, nil},
		contractCase{"zeroCols", []cin{rnd(rng, 4, 0)}, nil},
	)
	moments := kernels.Attrs{"beta1": 0.9, "beta2": 0.999}
	step := kernels.Attrs{"learningRate": 0.01, "beta1Power": 0.729, "beta2Power": 0.997002999, "epsilon": 1e-8}
	slot := func(shape ...int) cin {
		m, v := rnd(rng, shape...), pos(rng, shape...)
		return cin{shape: append([]int{2}, shape...), dtype: tensor.Float32, vals: append(m.vals, v.vals...)}
	}
	add("AdamMoments",
		contractCase{"rep", []cin{slot(3, 3, 1, 8), rnd(rng, 3, 3, 1, 8)}, moments},
		contractCase{"odd", []cin{slot(5, 7), special(rnd(rng, 5, 7))}, moments},
		contractCase{"scalar", []cin{slot(), rnd(rng)}, moments},
		contractCase{"zero", []cin{slot(0, 3), rnd(rng, 0, 3)}, moments},
	)
	add("ApplyAdam",
		contractCase{"rep", []cin{rnd(rng, 3, 3, 1, 8), slot(3, 3, 1, 8)}, step},
		contractCase{"odd", []cin{special(rnd(rng, 5, 7)), slot(5, 7)}, step},
		contractCase{"scalar", []cin{rnd(rng), slot()}, step},
		contractCase{"zero", []cin{rnd(rng, 0, 3), slot(0, 3)}, step},
	)
	return cases
}

// contractConfig is one device configuration of the matrix.
type contractConfig struct {
	packed, half, squeeze bool
}

func (c contractConfig) String() string {
	s := "unpacked"
	if c.packed {
		s = "packed"
	}
	if c.half {
		s += "-fp16"
	} else {
		s += "-fp32"
	}
	if !c.squeeze {
		s += "-nosqueeze"
	}
	return s
}

func contractConfigs() []contractConfig {
	var out []contractConfig
	for _, packed := range []bool{true, false} {
		for _, half := range []bool{false, true} {
			for _, squeeze := range []bool{true, false} {
				out = append(out, contractConfig{packed, half, squeeze})
			}
		}
	}
	return out
}

func newContractBackend(t testing.TB, c contractConfig, workers int) *Backend {
	cfg := DefaultConfig()
	cfg.Packed = c.packed
	cfg.SqueezeLogicalShapes = c.squeeze
	cfg.Device.HalfFloatOnly = c.half
	cfg.Device.Workers = workers
	cfg.Device.TextureAllocCost = -1
	b := New(cfg)
	t.Cleanup(b.Close)
	return b
}

// runContractCase dispatches one kernel straight through the override
// table and returns a digest of the output's shape, dtype and logical
// values. The flat value order is the same in both texel layouts, so the
// digest depends on the device's precision and on nothing else in the
// matrix. Padding values past the logical size must be +0: every program
// writes its whole output texture.
func runContractCase(b *Backend, name string, c contractCase) (string, error) {
	inputs := make([]kernels.Input, len(c.inputs))
	for i, in := range c.inputs {
		id := tensor.NewDataID()
		b.Write(id, in.vals, in.shape, in.dtype)
		inputs[i] = kernels.Input{DataID: id, Shape: in.shape, DType: in.dtype}
		defer b.DisposeData(id)
	}
	attrs := c.attrs
	if attrs == nil {
		attrs = kernels.Attrs{}
	}
	var out kernels.TensorInfo
	err := b.kernelsTable[name](inputs, attrs, &out)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	td := b.lookup(out.DataID)
	texture := b.device.ReadPixels(td.tex)
	fmt.Fprintf(h, "%v %v|", out.Shape, out.DType)
	hashFloats(h, texture[:td.size])
	for i, v := range texture[td.size:] {
		if math.Float32bits(v) != 0 {
			err = fmt.Errorf("padding value %d of the output texture is %g, want +0", td.size+i, v)
		}
	}
	b.DisposeData(out.DataID)
	return fmt.Sprintf("%016x", h.Sum64()), err
}

func hashFloats(h interface{ Write([]byte) (int, error) }, vals []float32) {
	var buf [4]byte
	for _, v := range vals {
		bits := math.Float32bits(v)
		buf[0], buf[1], buf[2], buf[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(buf[:])
	}
}

func loadGoldens(t *testing.T, file string) map[string]string {
	t.Helper()
	golden := map[string]string{}
	raw, err := os.ReadFile(file)
	if err != nil {
		if *updateGoldens {
			return golden
		}
		t.Fatalf("reading goldens: %v (record them with -update)", err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	return golden
}

func saveGoldens(t *testing.T, file string, golden map[string]string) {
	t.Helper()
	raw, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldensApply reports whether recorded bit patterns are comparable on
// this platform: off amd64 the compiler may fuse x*y+z, which changes the
// last bit of every accumulation.
func goldensApply() bool { return runtime.GOARCH == "amd64" }

func TestKernelContract(t *testing.T) {
	cases := contractCases()
	probe := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 1)
	var names []string
	for name := range probe.kernelsTable {
		names = append(names, name)
		if len(cases[name]) < 2 {
			t.Errorf("kernel %q is registered but has %d contract cases; add a representative and an awkward shape to contractCases", name, len(cases[name]))
		}
	}
	sort.Strings(names)
	for name := range cases {
		if _, ok := probe.kernelsTable[name]; !ok {
			t.Errorf("contract cases for %q, which is not registered", name)
		}
	}

	golden := loadGoldens(t, contractGoldenFile)
	recorded := map[string]string{}
	for _, cfg := range contractConfigs() {
		precision := "fp32"
		if cfg.half {
			precision = "fp16"
		}
		backends := []*Backend{newContractBackend(t, cfg, 1), newContractBackend(t, cfg, 3), newContractBackend(t, cfg, 7)}
		for _, name := range names {
			for _, c := range cases[name] {
				key := name + "/" + c.label + "/" + precision
				where := key + " on " + cfg.String()
				first, err := runContractCase(backends[0], name, c)
				if err != nil {
					t.Errorf("%s: %v", where, err)
					continue
				}
				for _, b := range backends[1:] {
					got, err := runContractCase(b, name, c)
					if err != nil || got != first {
						t.Errorf("%s: %d workers gave %s (err %v), 1 worker gave %s: the program's output depends on how the texel range was chunked",
							where, b.cfg.Device.Workers, got, err, first)
					}
				}
				if prev, ok := recorded[key]; ok && prev != first {
					t.Errorf("%s: digest %s, but %s on another layout/squeeze setting of the same precision", where, first, prev)
				}
				recorded[key] = first
				if !*updateGoldens && goldensApply() {
					if want, ok := golden[key]; !ok {
						t.Errorf("%s: no golden (new case? record with -update at a commit whose outputs are trusted)", key)
					} else if want != first {
						t.Errorf("%s: digest %s, golden %s", where, first, want)
					}
				}
			}
		}
	}
	if *updateGoldens {
		saveGoldens(t, contractGoldenFile, recorded)
	}
}
