package savedmodel

import (
	"fmt"
	"slices"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// A Lowering is how the execution plan runs one graph op: a step that
// dispatches one kernel of the range table (kernels.RangeKernels), or an
// alias step that gives its input's data a new shape. The plan compile
// (graphmodel) builds its steps from this table and the verifier
// (verify.go) checks a node by the same kernel's own Resolve, so the
// shape rule of an op is written once: in its kernel.
type Lowering struct {
	// Kernel is the kernel the step dispatches; "" for an alias.
	Kernel string
	// Arity lists the input counts the op takes.
	Arity []int
	// Variadic ops take Arity[0] inputs or more: Concat joins any number.
	Variadic bool
	// Rank, when not 0, is the rank every input must have: a graph MatMul
	// is rank 2 (its kernel, BatchMatMul, takes rank 3 too) and a graph
	// Pad rank 4 (its padding attribute is [top bottom left right]).
	Rank int
	// Alias is an alias op's output shape, appended to out[:0] from its
	// input's shape: set for Identity, Reshape and Flatten only.
	Alias func(out, in []int, a kernels.Attrs) ([]int, error)
}

// Lower returns op's lowering; false means the plan has none, and a node
// of op fails only the Execute that reaches it.
func Lower(op string) (Lowering, bool) {
	l, ok := lowerings[op]
	return l, ok
}

// CheckArity reports an input count the op does not take.
func (l Lowering) CheckArity(n int) error {
	if slices.Contains(l.Arity, n) || l.Variadic && n >= l.Arity[0] {
		return nil
	}
	if l.Variadic {
		return fmt.Errorf("needs %d or more inputs, got %d", l.Arity[0], n)
	}
	wants := fmt.Sprint(l.Arity[0])
	for _, w := range l.Arity[1:] {
		wants += fmt.Sprintf(" or %d", w)
	}
	return fmt.Errorf("needs %s inputs, got %d", wants, n)
}

// CheckRank reports an input of op whose rank breaks the op's rank rule.
func (l Lowering) CheckRank(op string, shape []int) error {
	if l.Rank == 0 || len(shape) == l.Rank {
		return nil
	}
	return fmt.Errorf("rank mismatch: %s input must be rank %d, got %v", op, l.Rank, shape)
}

var lowerings = func() map[string]Lowering {
	one, two, fused := []int{1}, []int{2}, []int{2, 3}
	m := map[string]Lowering{
		"Identity": {Arity: one, Alias: func(out, in []int, _ kernels.Attrs) ([]int, error) {
			return append(out[:0], in...), nil
		}},
		// [batch, target...], one -1 of the target inferred.
		"Reshape": {Arity: one, Alias: func(out, in []int, a kernels.Attrs) ([]int, error) {
			if len(in) == 0 {
				return out, fmt.Errorf("Reshape of rank-0 input")
			}
			out = append(append(out[:0], in[0]), a.Shape...)
			return out, tensor.InferInto(out, tensor.ShapeSize(in))
		}},
		"Flatten": {Arity: one, Alias: func(out, in []int, _ kernels.Attrs) ([]int, error) {
			if len(in) == 0 || in[0] == 0 {
				return out, fmt.Errorf("cannot flatten shape %v", in)
			}
			return append(out[:0], in[0], tensor.ShapeSize(in)/in[0]), nil
		}},
		"MatMul":                     {Kernel: "BatchMatMul", Arity: two, Rank: 2},
		"_FusedMatMul":               {Kernel: "_FusedMatMul", Arity: fused},
		"Add":                        {Kernel: "Add", Arity: two},
		"BiasAdd":                    {Kernel: "Add", Arity: two},
		"Sub":                        {Kernel: "Sub", Arity: two},
		"Mul":                        {Kernel: "Mul", Arity: two},
		"Conv2D":                     {Kernel: "Conv2D", Arity: two},
		"DepthwiseConv2dNative":      {Kernel: "DepthwiseConv2dNative", Arity: two},
		"FusedConv2D":                {Kernel: "FusedConv2D", Arity: fused},
		"FusedDepthwiseConv2dNative": {Kernel: "FusedDepthwiseConv2dNative", Arity: fused},
		"Softmax":                    {Kernel: "Softmax", Arity: one},
		"MaxPool":                    {Kernel: "MaxPool", Arity: one},
		"AvgPool":                    {Kernel: "AvgPool", Arity: one},
		"Mean":                       {Kernel: "Mean", Arity: one},
		"FusedBatchNorm":             {Kernel: "FusedBatchNorm", Arity: []int{5}},
		"Pad":                        {Kernel: "PadV2", Arity: one, Rank: 4},
		"Slice":                      {Kernel: "Slice", Arity: one},
		"Concat":                     {Kernel: "Concat", Arity: one, Variadic: true},
		"GatherV2":                   {Kernel: "GatherV2", Arity: two},
	}
	// The element-wise table's activations, each its own kernel.
	for _, op := range kernels.ElementwiseOps() {
		if op.Activation != "" {
			m[op.Name] = Lowering{Kernel: op.Name, Arity: one}
		}
	}
	return m
}()
