package kernels

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// The range kernels: every kernel, each declared once — below, and every
// op of the element-wise table appended after them (elementwise.go) — as
// one entry: its name, its check (the one the reference kernel runs too),
// its body, its one cost and its reference kernel. The cpu tier runs the
// reference kernels; native installs the table in one loop, reading a
// call's inputs up front and sharding whole units of its output across the
// worker pool; webgl in another, reading them inside the program, over the
// texel ranges the device hands out. No tier registers a kernel by hand.

// A Fill computes the output values [lo, lo+len(dst)) of a resolved call
// into dst from its input buffers in: the call's inputs in order (a fused
// kernel's bias is in[2]), then its staged buffer, if it has one. It
// writes every value of dst and reads none first, and a range may begin
// and end anywhere: what it writes for a value depends only on the value's
// index.
type Fill func(in [][]float32, lo int, dst []float32)

// A Range is one resolved call of a range kernel.
type Range struct {
	Fill Fill
	// Work is the call's cost (work.go).
	Work Work
	// Unit is the number of output values native keeps in one chunk — an
	// output row of a forward window kernel or a matmul, a filter row of a
	// filter gradient, an image of an input gradient — so that no chunk
	// splits what its cores compute in one pass; 0 is 1.
	Unit int
	// Stage is what the call computes from its inputs once, before any
	// range runs.
	Stage Stage
	// Check, if set, checks the call's input values, which only a tier
	// holding them on the host can read: GatherV2's indices (Gather.Check).
	// Node runs it on every dispatch, before it allocates the output, and
	// fails the call with the reference kernel's error; webgl, which cannot
	// read its inputs without a readback, does not, and writes what Fill
	// writes for a value the check rejects.
	Check func(in [][]float32) error
}

// A Stage is a buffer a call computes from its inputs once per dispatch,
// for every range to read: Conv2DBackpropInput's filter, transposed
// (Walk.TransposeFilter). The zero Stage is none.
type Stage struct {
	n    int
	walk Walk
}

// Len is the staged buffer's length, 0 for none.
func (s Stage) Len() int { return s.n }

// Run fills staged, of Len values, from the call's input buffers.
func (s Stage) Run(in [][]float32, staged []float32) { s.walk.TransposeFilter(in[1], staged) }

// Sampled names what a kernel's shader decodes through compiled samplers,
// a cost per value that depends on whether the shader compiler squeezes
// size-1 dims: a setting only webgl has, which adds it to the call's Work.
type Sampled uint8

const (
	// SamplesNothing: the shader computes its operands' offsets itself.
	SamplesNothing Sampled = iota
	// SamplesOutput: the output's coordinates, decoded (a view).
	SamplesOutput
	// SamplesInputs: every input, through a sampler of its own shape.
	SamplesInputs
	// SamplesParameters: every input but the first, which the shader
	// reads at the output's own index (batch norm's x).
	SamplesParameters
	// SamplesBroadcasts: every input, as SamplesInputs, unless every input
	// has the output's shape: then each is read at the output's own index
	// (a two-operand element-wise op).
	SamplesBroadcasts
)

// Inputs returns the inputs of a call whose output has shape out that its
// shader reads through samplers of their own shapes.
func (s Sampled) Inputs(inputs []Input, out []int) []Input {
	switch s {
	case SamplesInputs:
		return inputs
	case SamplesParameters:
		return inputs[1:]
	case SamplesBroadcasts:
		for _, in := range inputs {
			if !tensor.ShapesEqual(in.Shape, out) {
				return inputs
			}
		}
	}
	return nil
}

// A RangeKernel is one kernel of the table.
type RangeKernel struct {
	Name string
	// Resolve checks a call of kernel name, describes its output's shape
	// and dtype in out and returns the call's body and cost. A call every
	// check passes has a body, whatever its rank.
	Resolve func(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error)
	Sampled Sampled
	// Ref is the kernel's reference kernel.
	Ref RefKernel
}

// RangeKernels is the table, in a fixed order: the kernels below, then the
// element-wise table's ops.
func RangeKernels() []RangeKernel { return rangeKernels }

// LookupKernel returns the table's entry of kernel name: the one lookup of
// a kernel by its name.
func LookupKernel(name string) (RangeKernel, bool) {
	i, ok := kernelIndex[name]
	if !ok {
		return RangeKernel{}, false
	}
	return rangeKernels[i], true
}

// LookupRef returns the reference kernel of kernel name.
func LookupRef(name string) (RefKernel, bool) {
	k, ok := LookupKernel(name)
	return k.Ref, ok
}

// RefKernelNames returns the sorted names of the table's kernels, every
// one a reference kernel's.
func RefKernelNames() []string {
	names := make([]string, 0, len(kernelIndex))
	for name := range kernelIndex {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

var rangeKernels = append([]RangeKernel{
	{Name: "Conv2D", Resolve: convolution, Ref: conv2DRef},
	{Name: "FusedConv2D", Resolve: convolution, Ref: fusedConv2DRef},
	{Name: "DepthwiseConv2dNative", Resolve: convolution, Ref: depthwiseConv2dNativeRef},
	{Name: "FusedDepthwiseConv2dNative", Resolve: convolution, Ref: fusedDepthwiseConv2dNativeRef},
	{Name: "MaxPool", Resolve: pool, Ref: maxPoolRef},
	{Name: "AvgPool", Resolve: pool, Ref: avgPoolRef},
	{Name: "BatchMatMul", Resolve: matMul, Ref: batchMatMulRef},
	{Name: "_FusedMatMul", Resolve: matMul, Ref: fusedMatMulRef},
	{Name: "Conv2DBackpropFilter", Resolve: convGrad, Ref: conv2DBackpropFilterRef},
	{Name: "Conv2DBackpropInput", Resolve: convGrad, Ref: conv2DBackpropInputRef},
	{Name: "DepthwiseConv2dNativeBackpropFilter", Resolve: convGrad, Ref: depthwiseConv2dNativeBackpropFilterRef},
	{Name: "DepthwiseConv2dNativeBackpropInput", Resolve: convGrad, Ref: depthwiseConv2dNativeBackpropInputRef},
	{Name: "MaxPoolGrad", Resolve: poolGrad, Ref: maxPoolGradRef},
	{Name: "AvgPoolGrad", Resolve: poolGrad, Ref: avgPoolGradRef},
	{Name: "Sum", Resolve: reduce, Ref: sumRef},
	{Name: "Mean", Resolve: reduce, Ref: meanRef},
	{Name: "Max", Resolve: reduce, Ref: maxRef},
	{Name: "Min", Resolve: reduce, Ref: minRef},
	{Name: "Prod", Resolve: reduce, Ref: prodRef},
	{Name: "ArgMax", Resolve: reduce, Ref: argMaxRef},
	{Name: "ArgMin", Resolve: reduce, Ref: argMinRef},
	{Name: "Softmax", Resolve: softmax, Ref: softmaxRef},
	{Name: "AdamMoments", Resolve: adamMoments, Ref: adamMomentsRef},
	{Name: "ApplyAdam", Resolve: applyAdam, Ref: applyAdamRef},
	// Every shape kernel's value is one fetch, behind a decode and remap
	// of its coordinates: the output's (squeezed, on webgl) for a view;
	// each dim decoded and wrapped (tile) or bounds-checked (pad, the fetch
	// charged as taken for a padding value too).
	{Name: "Transpose", Resolve: move(ResolveTranspose, perDim(0)), Sampled: SamplesOutput, Ref: transposeRef},
	{Name: "Slice", Resolve: move(ResolveSlice, perDim(0)), Sampled: SamplesOutput, Ref: sliceRef},
	{Name: "Tile", Resolve: move(ResolveTile, perDim(ALUTerm+1)), Ref: tileRef},
	{Name: "PadV2", Resolve: move(ResolvePad, perDim(ALUTerm+2)), Ref: padV2Ref},
	{Name: "OneHot", Resolve: move(ResolveOneHot, func(size, _ int) Work { return PerValue(size, 1, ALUDecode+1) }), Ref: oneHotRef},
	{Name: "Fill", Resolve: move(ResolveFill, func(int, int) Work { return Work{} }), Ref: fillRef}, // a constant: no work
	{Name: "Concat", Resolve: concat, Ref: concatRef},
	{Name: "GatherV2", Resolve: gather, Ref: gatherV2Ref},
	{Name: "Select", Resolve: selectOperands, Sampled: SamplesInputs, Ref: selectRef},
	{Name: "FusedBatchNorm", Resolve: batchNorm, Sampled: SamplesParameters, Ref: fusedBatchNormRef},
	{Name: "Any", Resolve: reduce, Ref: anyRef},
	{Name: "All", Resolve: reduce, Ref: allRef},
	{Name: "Reverse", Resolve: move(ResolveReverse, perDim(1)), Sampled: SamplesOutput, Ref: reverseRef}, // a flip per dim
	{Name: "Cast", Resolve: move(ResolveCast, func(size, _ int) Work { return PerValue(size, 1, 1) }), Ref: castRef},
	{Name: "Range", Resolve: move(ResolveRange, func(size, _ int) Work { return PerValue(size, 0, aluMAC) }), Ref: rangeRef},
	{Name: "CumSum", Resolve: cumSum, Ref: cumSumRef},
}, elementwiseKernels()...)

// kernelIndex is each kernel's position in the table, by name.
var kernelIndex = func() map[string]int {
	index := make(map[string]int, len(rangeKernels))
	for i, k := range rangeKernels {
		if _, dup := index[k.Name]; dup {
			//lint:ignore operr init-time table invariant: two entries claiming one kernel name, no dispatch in flight to attribute
			panic(fmt.Sprintf("kernels: duplicate kernel %q", k.Name))
		}
		index[k.Name] = i
	}
	return index
}()

// convolution is Conv2D's and DepthwiseConv2dNative's range, fused or not:
// the walk over output rows (Walk.Conv2D, Walk.Depthwise), each value the
// sum over its in-bounds taps, then the epilogue.
func convolution(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	info, err := ResolveConv(name, inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	ep, err := FusedTail(name, inputs, attrs, info.OutChannels)
	if err != nil {
		return Range{}, err
	}
	size, bias, walk := tensor.ShapeSize(out.Shape), len(inputs) == 3, NewWalk(info)
	r := Range{Unit: info.OutWidth * info.OutChannels}
	if strings.Contains(name, "Depthwise") {
		r.Work = depthwiseWork(info, size, bias, ep.Act != nil)
		r.Fill = func(in [][]float32, lo int, dst []float32) { walk.Depthwise(in[0], in[1], ep.Biased(in), lo, dst) }
	} else {
		r.Work = convWork(info, size, bias, ep.Act != nil)
		r.Fill = func(in [][]float32, lo int, dst []float32) { walk.Conv2D(in[0], in[1], ep.Biased(in), lo, dst) }
	}
	return r, nil
}

// pool is MaxPool's and AvgPool's range (Walk.Pool): one fetch and one
// compare-or-add per in-bounds tap, the average one divide.
func pool(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	info, err := ResolvePool(name, inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	size, taps, walk := tensor.ShapeSize(out.Shape), int64(convTaps(info)*info.OutChannels), NewWalk(info)
	r := Range{Work: PerValue(size, 0, 3*ALUDecode), Unit: info.OutWidth * info.OutChannels}
	r.Work.Fetches += taps
	r.Work.ALU += taps
	if name == "AvgPool" {
		r.Work.ALU += int64(size)
		r.Fill = func(in [][]float32, lo int, dst []float32) { walk.Pool(in[0], vec.PoolAvg, lo, dst) }
	} else {
		r.Fill = func(in [][]float32, lo int, dst []float32) { walk.Pool(in[0], vec.PoolMax, lo, dst) }
	}
	return r, nil
}

// matMul is BatchMatMul's and _FusedMatMul's range (MatMul.Fill): every
// value decodes its row and column and sums k products. BatchMatMul's one
// shader decodes a batch coordinate too, a rank-2 product's as well (batch
// 1); _FusedMatMul's, always rank 2, does not.
func matMul(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	g, err := ResolveMatMul(name, inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	ep, err := FusedTail(name, inputs, attrs, g.N())
	if err != nil {
		return Range{}, err
	}
	size, decode := tensor.ShapeSize(out.Shape), 2
	if name == "_FusedMatMul" {
		decode = 1
	}
	work := addEpilogue(macWork(size, int64(size)*int64(g.K()), decode), size, len(inputs) == 3, ep.Act != nil)
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { g.Fill(in[0], in[1], ep.Biased(in), lo, dst) },
		Work: work, Unit: g.N()}, nil
}

// convGrad is the range of a convolution's or a depthwise convolution's
// gradient. A filter gradient's value sums over the forward pass's
// in-bounds taps; an input gradient's is the reference's scatter
// restricted to the range, its work the gather the real backend runs (a
// fragment shader cannot scatter): per value, every tap that names an
// output position.
func convGrad(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	info, err := ResolveConvBackprop(name, inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	size, walk, batch := tensor.ShapeSize(out.Shape), NewWalk(info), info.BatchSize
	macs, image := int64(convTaps(info)), info.InHeight*info.InWidth*info.InChannels
	if strings.HasSuffix(name, "BackpropInput") {
		macs, _ = backpropTaps(info)
	}
	switch name {
	case "Conv2DBackpropFilter":
		return Range{Fill: func(in [][]float32, lo int, dst []float32) { walk.FilterGrad(in[0], in[1], batch, lo, dst) },
			Work: macWork(size, macs*int64(info.InChannels)*int64(info.OutChannels), 3), Unit: info.OutChannels}, nil
	case "Conv2DBackpropInput":
		return Range{Fill: func(in [][]float32, lo int, dst []float32) { walk.InputGrad(in[0], in[2], lo, dst) },
			Work: macWork(size, macs*int64(info.InChannels)*int64(info.OutChannels), 3), Unit: image,
			Stage: Stage{tensor.ShapeSize(inputs[1].Shape), walk}}, nil
	case "DepthwiseConv2dNativeBackpropFilter":
		return Range{Fill: func(in [][]float32, lo int, dst []float32) { walk.DepthwiseFilterGrad(in[0], in[1], batch, lo, dst) },
			Work: macWork(size, macs*int64(info.OutChannels), 3), Unit: info.ChannelMultiplier}, nil
	default:
		return Range{Fill: func(in [][]float32, lo int, dst []float32) { walk.DepthwiseInputGrad(in[0], in[1], lo, dst) },
			Work: macWork(size, macs*int64(info.OutChannels), 3), Unit: image}, nil
	}
}

// poolGrad is MaxPoolGrad's — inputs (dy, x) — and AvgPoolGrad's range
// over dx. Per value, MaxPoolGrad fetches its own x and, per covering
// window, rescans the window's cells (fetch + compare) and fetches dy's
// value (charged as taken: whether this position is the argmax is data);
// AvgPoolGrad recounts each covering window's in-bounds cells and adds one
// dy fetch, a divide and an add.
func poolGrad(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	info, err := ResolvePoolGrad(name, inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	size, c, walk := tensor.ShapeSize(out.Shape), int64(info.OutChannels), NewWalk(info)
	pairs, cells := backpropTaps(info)
	r := Range{Unit: info.InHeight * info.InWidth * info.InChannels}
	if name == "MaxPoolGrad" {
		r.Work = PerValue(size, 1, 3*ALUDecode)
		r.Work.Fetches += c * (cells + pairs)
		r.Fill = func(in [][]float32, lo int, dst []float32) { walk.MaxPoolGrad(in[1], in[0], lo, dst) }
	} else {
		r.Work = PerValue(size, 0, 3*ALUDecode)
		r.Work.Fetches += c * pairs
		r.Fill = func(in [][]float32, lo int, dst []float32) { walk.AvgPoolGrad(in[0], lo, dst) }
	}
	r.Work.ALU += c * (cells + 2*pairs)
	return r, nil
}

// reduce is a reduction's range: one output value per fold (Reduce.Fill),
// each fetching and folding its inner values where they lie; Mean divides
// once. A Sum whose merged runs are one reduced run followed by one kept
// run — a sum over leading axes, every bias gradient — is the columns of
// [rows, columns] summed (ColumnSums), the same sums in the same order, a
// native chunk a block of eight columns, whole vector steps.
func reduce(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	g, err := ResolveReduce(name, inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	work := PerValue(g.outer, g.inner, g.inner)
	if name == "Mean" {
		work.ALU += int64(g.outer)
	}
	if name == "Sum" && g.leading() {
		rows, columns := g.inner, g.outer
		return Range{Fill: func(in [][]float32, lo int, dst []float32) { ColumnSums(in[0], rows, columns, lo, dst) },
			Work: work, Unit: 8}, nil
	}
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { g.Fill(in[0], lo, dst) }, Work: work}, nil
}

// softmax is Softmax's range (SoftmaxRows), a native chunk a whole row.
func softmax(_ string, inputs []Input, _ Attrs, out *TensorInfo) (Range, error) {
	outer, inner, err := ResolveSoftmax(inputs, out)
	if err != nil {
		return Range{}, err
	}
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { SoftmaxRows(in[0], inner, lo, dst) },
		Work: softmaxWork(outer, inner), Unit: inner}, nil
}

// cumSum is CumSum's range (Scan.Fill), a native chunk a block of whole
// lines. Its shader sums each value's line up to the value: a line of n
// values fetches and adds n(n+1)/2 values, and each value decodes its
// coordinates.
func cumSum(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	c, err := ResolveCumSum(inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	size := tensor.ShapeSize(out.Shape)
	lines, prefix := int64(size/max(c.n, 1)), int64(c.n)*int64(c.n+1)/2
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { c.Fill(in[0], lo, dst) },
		Work: Work{Fetches: lines * prefix, ALU: lines*prefix + int64(size)*3*ALUDecode}, Unit: c.n * c.stride}, nil
}

// adamMoments is AdamMoments' range: (mv [2, ...shape], g [...shape]) →
// mv', any range of the slot, m and v alike.
func adamMoments(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	a, err := ResolveAdamMoments(inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { a.Fill(in[0], in[1], lo, dst) },
		Work: adamMomentsWork(a.n)}, nil
}

// applyAdam is ApplyAdam's range: (x [...shape], mv [2, ...shape], corr
// [2]) → x'.
func applyAdam(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	a, err := ResolveApplyAdam(inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { a.Fill(in[0], in[1], in[2], lo, dst) },
		Work: PerValue(a.n, 3, aluAdamStep)}, nil
}

// move is the Resolve of a shape kernel whose resolve returns the body
// that fills its output from its one input (none, for Fill), and whose
// work is work(size, rank) for an output of size values and rank dims.
func move[M interface {
	Fill(x []float32, lo int, dst []float32)
}](resolve func([]Input, Attrs, *TensorInfo) (M, error), work func(size, rank int) Work) func(string, []Input, Attrs, *TensorInfo) (Range, error) {
	return func(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
		m, err := resolve(inputs, attrs, out)
		if err != nil {
			return Range{}, err
		}
		return Range{Fill: func(in [][]float32, lo int, dst []float32) {
			var x []float32
			if len(in) > 0 {
				x = in[0]
			}
			m.Fill(x, lo, dst)
		}, Work: work(tensor.ShapeSize(out.Shape), len(out.Shape))}, nil
	}
}

// perDim is the work of a shape kernel's value: one fetch, and alu
// operations per output dim.
func perDim(alu int) func(size, rank int) Work {
	return func(size, rank int) Work { return PerValue(size, 1, alu*rank) }
}

// gather is GatherV2's range (Gather.Fill): two fetches per value behind
// two div/mod pairs and the index's bounds check. Its indices are values,
// which only a host tier reads (Range.Check): node rejects an index out of
// range with the reference kernel's error, and webgl writes 0 for its
// slice, as TensorFlow.js reads 0 there on WebGL and throws on the CPU.
func gather(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	g, err := ResolveGather(inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	size := tensor.ShapeSize(out.Shape)
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { g.Fill(in[0], in[1], lo, dst) },
		Check: func(in [][]float32) error { return g.Check(in[1]) },
		Work:  PerValue(size, 2, 2*ALUDecode+2)}, nil
}

// concat is Concat's range: two div/mod pairs per value, then a chain of
// coordinate comparisons, one per input.
func concat(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	c, err := ResolveConcat(inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { c.Fill(in, lo, dst) },
		Work: PerValue(tensor.ShapeSize(out.Shape), 1, 2*ALUDecode+len(inputs))}, nil
}

// selectOperands is Select's range (Operands.Select): the condition and
// the chosen branch fetched, and one compare.
func selectOperands(_ string, inputs []Input, _ Attrs, out *TensorInfo) (Range, error) {
	o, err := ResolveSelect(inputs, out)
	if err != nil {
		return Range{}, err
	}
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { o.Select(in[0], in[1], in[2], lo, dst) },
		Work: PerValue(tensor.ShapeSize(out.Shape), 2, 1)}, nil
}

// batchNorm is FusedBatchNorm's range (BatchNorm.Fill): five fetches and
// six operations per value — subtract, add ε, rsqrt, multiply, scale,
// offset.
func batchNorm(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
	n, err := ResolveBatchNorm(inputs, attrs, out)
	if err != nil {
		return Range{}, err
	}
	return Range{Fill: func(in [][]float32, lo int, dst []float32) { n.Fill(in[0], in[1], in[2], in[3], in[4], lo, dst) },
		Work: PerValue(tensor.ShapeSize(out.Shape), 5, 6)}, nil
}
