// Package parityfix seeds kernelparity violations: a backend kernel
// registered under a name with no reference implementation, and a graph
// decoder case for an op no kernel (or alias) resolves.
package parityfix

// kernelFn stands in for a kernel implementation.
type kernelFn func()

var refRegistry = map[string]kernelFn{}

// RegisterRef mimics the reference registry.
func RegisterRef(name string, k kernelFn) { refRegistry[name] = k }

type backend struct {
	kernels map[string]kernelFn
}

func (b *backend) register(name string, k kernelFn) { b.kernels[name] = k }

// entry mimics the table-driven registration idiom.
type entry struct {
	name string
	fn   kernelFn
}

func init() {
	RegisterRef("Add", func() {})
	RegisterRef("Relu", func() {})

	b := &backend{kernels: map[string]kernelFn{}}
	b.register("Add", func() {})
	b.register("Sofmax", func() {}) // want: orphaned (typo of Softmax)

	tabled := []entry{
		{"Relu", func() {}},
		{"Gelu", func() {}}, // want: orphaned table registration
	}
	for _, e := range tabled {
		b.register(e.name, e.fn)
	}
}

type node struct{ Op string }

// compile mimics the graph decoder's op switch.
func compile(n node) kernelFn {
	switch n.Op {
	case "Add":
		return refRegistry["Add"]
	case "Identity": // structural: exempt
		return nil
	case "BiasAdd": // alias onto Add: fine
		return refRegistry["Add"]
	case "Conv3D": // want: no kernel of that name
		return nil
	}
	return nil
}

var _ = compile

// ElementwiseOp mimics the element-wise table: every entry is a reference
// kernel, registered in a loop.
type ElementwiseOp struct {
	Name string
	fn   kernelFn
}

var elementwise = []ElementwiseOp{
	{Name: "Neg", fn: func() {}},
}

// compileTabled is a decoder case served by a table entry: clean.
func compileTabled(n node) kernelFn {
	switch n.Op {
	case "Neg":
		return elementwise[0].fn
	}
	return nil
}

var _ = compileTabled

// RangeKernel mimics the range table: every entry is a backend kernel the
// tiers install in one loop, which needs a reference kernel of its name.
type RangeKernel struct {
	Name string
	fn   kernelFn
}

var rangeKernels = []RangeKernel{
	{Name: "Add", fn: func() {}},
	{Name: "Reluu", fn: func() {}}, // want: orphaned range kernel (typo of Relu)
}

var _ = rangeKernels
