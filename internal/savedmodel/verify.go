package savedmodel

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
)

// This file is the load-time static shape/dtype verifier — the second tier
// of the tfjs-vet suite. Where the TensorFlow whitepaper (Abadi et al.,
// 2015) validates a dataflow graph by shape inference before execution,
// VerifyGraph propagates a partial shape (unknown rank, or known rank with
// unknown dims) and a dtype through every node of a GraphDef and rejects
// rank- or dtype-inconsistent models with a node-and-edge diagnostic before
// the first Execute — so a malformed converted artifact fails at load or
// convert time, not at first predict.
//
// The verifier is deliberately optimistic about what it cannot prove:
// unknown dims match anything, and ops the executor does not decode
// statically (which a feed may legally short-circuit at Execute time)
// produce unknown shapes instead of errors. Every issue it does report is a
// provable inconsistency.

// DimUnknown marks a dimension whose size is not statically known.
const DimUnknown = -1

// valueInfo is the inferred static type of one graph edge.
type valueInfo struct {
	shape []int // nil means unknown rank; DimUnknown entries are unknown dims
	dtype string
}

// VerifyIssue is one provable inconsistency found by VerifyGraph.
type VerifyIssue struct {
	// Node and Op identify the inconsistent node.
	Node string
	Op   string
	// Edge names the offending input edge, when the problem is tied to one
	// ("" when the node itself is malformed).
	Edge string
	// Msg describes the inconsistency.
	Msg string
}

// String formats the issue as "node <n> (<op>) [input <edge>]: msg".
func (i VerifyIssue) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %q (%s)", i.Node, i.Op)
	if i.Edge != "" {
		fmt.Fprintf(&b, " input %q", i.Edge)
	}
	b.WriteString(": ")
	b.WriteString(i.Msg)
	return b.String()
}

// VerifyError aggregates every issue found in one verification pass.
type VerifyError struct {
	Issues []VerifyIssue
}

// Error implements the error interface, leading with the first issue.
func (e *VerifyError) Error() string {
	if len(e.Issues) == 0 {
		return "savedmodel: graph verification failed"
	}
	msg := fmt.Sprintf("savedmodel: graph verification failed: %s", e.Issues[0])
	if n := len(e.Issues) - 1; n > 0 {
		msg += fmt.Sprintf(" (and %d more)", n)
	}
	return msg
}

// VerifyGraph statically checks shape and dtype consistency of every node
// in g and returns a *VerifyError listing all provable inconsistencies, or
// nil when the graph is consistent. It does not require Validate to have
// passed: dangling input edges are reported as issues rather than panics.
func VerifyGraph(g *GraphDef) error {
	v := &verifier{g: g, infos: make(map[string]valueInfo, len(g.Nodes))}
	v.run()
	if len(v.issues) == 0 {
		return nil
	}
	return &VerifyError{Issues: v.issues}
}

type verifier struct {
	g      *GraphDef
	infos  map[string]valueInfo
	state  map[string]int // 0 unvisited, 1 visiting, 2 done
	issues []VerifyIssue
}

func (v *verifier) errf(n *NodeDef, edge, format string, args ...any) {
	v.issues = append(v.issues, VerifyIssue{
		Node: n.Name, Op: n.Op, Edge: edge, Msg: fmt.Sprintf(format, args...),
	})
}

// run visits every node in dependency order (not only those reachable from
// the serving outputs, so a malformed but unreachable subgraph is still
// reported at convert time, before pruning would hide it).
func (v *verifier) run() {
	v.state = make(map[string]int, len(v.g.Nodes))
	for i := range v.g.Nodes {
		v.visit(&v.g.Nodes[i])
	}
}

func (v *verifier) visit(n *NodeDef) valueInfo {
	switch v.state[n.Name] {
	case 1:
		// Cycle: topoSort in the executor rejects it with its own error;
		// report once and break the recursion with an unknown value.
		v.errf(n, "", "node participates in a cycle")
		v.state[n.Name] = 2
		unknown := valueInfo{dtype: "float32"}
		v.infos[n.Name] = unknown
		return unknown
	case 2:
		return v.infos[n.Name]
	}
	v.state[n.Name] = 1
	ins := make([]valueInfo, len(n.Inputs))
	for i, name := range n.Inputs {
		dep, ok := v.g.Node(name)
		if !ok {
			v.errf(n, name, "input edge references undeclared node")
			ins[i] = valueInfo{dtype: "float32"}
			continue
		}
		ins[i] = v.visit(dep)
	}
	info := v.infer(n, ins)
	v.state[n.Name] = 2
	v.infos[n.Name] = info
	return info
}

// requireFloat32 flags non-float32 operands of compute ops: every op the
// graph executor decodes runs float32 math.
func (v *verifier) requireFloat32(n *NodeDef, ins []valueInfo) {
	for i, in := range ins {
		if in.dtype != "" && in.dtype != "float32" {
			v.errf(n, inputName(n, i), "dtype mismatch: %s has dtype %s, %s requires float32", inputName(n, i), in.dtype, n.Op)
		}
	}
}

func inputName(n *NodeDef, i int) string {
	if i < len(n.Inputs) {
		return n.Inputs[i]
	}
	return fmt.Sprintf("#%d", i)
}

// arity checks the executor's input-count requirement. It returns false
// (and reports) when the node cannot possibly execute.
func (v *verifier) arity(n *NodeDef, ins []valueInfo, want ...int) bool {
	for _, w := range want {
		if len(ins) == w {
			return true
		}
	}
	wants := make([]string, len(want))
	for i, w := range want {
		wants[i] = fmt.Sprint(w)
	}
	v.errf(n, "", "needs %s inputs, got %d", strings.Join(wants, " or "), len(ins))
	return false
}

// infer computes the output value of one node, reporting any provable
// inconsistency along the way. Ops the executor does not decode statically
// yield an unknown value: a feed may short-circuit them at Execute time, so
// their presence is not a load-time error.
func (v *verifier) infer(n *NodeDef, ins []valueInfo) valueInfo {
	unknown := valueInfo{dtype: "float32"}
	a, err := DecodeAttrs(n)
	if err != nil {
		v.errf(n, "", "%s", err.(*attrError).msg)
		return unknown
	}

	switch n.Op {
	case "Const":
		w, ok := v.g.Weights[n.Name]
		if !ok {
			v.errf(n, "", "Const node has no weight")
			return unknown
		}
		dt := w.DType
		if dt == "" {
			dt = "float32"
		}
		return valueInfo{shape: append([]int(nil), w.Shape...), dtype: dt}

	case "Placeholder":
		return valueInfo{shape: a.Shape, dtype: a.DType.String()}

	case "Identity":
		if !v.arity(n, ins, 1) {
			return unknown
		}
		return ins[0]

	case "Softmax":
		if !v.arity(n, ins, 1) {
			return unknown
		}
		v.requireFloat32(n, ins)
		if ins[0].shape != nil && len(ins[0].shape) == 0 {
			v.errf(n, inputName(n, 0), "softmax requires rank >= 1, got a scalar")
		}
		return valueInfo{shape: ins[0].shape, dtype: "float32"}

	case "Add", "BiasAdd", "Sub", "Mul":
		if !v.arity(n, ins, 2) {
			return unknown
		}
		v.requireFloat32(n, ins)
		out, ok := broadcastShapes(ins[0].shape, ins[1].shape)
		if !ok {
			v.errf(n, inputName(n, 1), "shape mismatch: cannot broadcast %s against %s",
				shapeString(ins[1].shape), shapeString(ins[0].shape))
			return unknown
		}
		return valueInfo{shape: out, dtype: "float32"}

	case "MatMul", "_FusedMatMul":
		if !v.arity(n, ins, 2, 3) {
			return unknown
		}
		if n.Op == "MatMul" && len(ins) != 2 {
			v.errf(n, "", "needs 2 inputs, got %d", len(ins))
			return unknown
		}
		v.requireFloat32(n, ins)
		m, ka := matDims(ins[0].shape, a.TransposeA)
		kb, nn := matDims(ins[1].shape, a.TransposeB)
		for i := 0; i < 2; i++ {
			if ins[i].shape != nil && len(ins[i].shape) != 2 {
				v.errf(n, inputName(n, i), "rank mismatch: matmul operand must be rank 2, got rank %d (%s)",
					len(ins[i].shape), shapeString(ins[i].shape))
				return unknown
			}
		}
		if ka != DimUnknown && kb != DimUnknown && ka != kb {
			v.errf(n, inputName(n, 1), "shape mismatch: inner dims %d and %d differ (%s x %s)",
				ka, kb, shapeString(ins[0].shape), shapeString(ins[1].shape))
			return unknown
		}
		if len(ins) == 3 {
			v.checkBias(n, 2, ins[2], nn)
		}
		return valueInfo{shape: []int{m, nn}, dtype: "float32"}

	case "Conv2D", "DepthwiseConv2dNative", "FusedConv2D", "FusedDepthwiseConv2dNative":
		fused := n.Op != "Conv2D" && n.Op != "DepthwiseConv2dNative"
		depthwise := n.Op == "DepthwiseConv2dNative" || n.Op == "FusedDepthwiseConv2dNative"
		if fused {
			if !v.arity(n, ins, 2, 3) {
				return unknown
			}
		} else if !v.arity(n, ins, 2) {
			return unknown
		}
		v.requireFloat32(n, ins)
		out, outC, ok := v.convShape(n, ins[0].shape, ins[1].shape, a, depthwise)
		if !ok {
			return unknown
		}
		if len(ins) == 3 {
			v.checkBias(n, 2, ins[2], outC)
		}
		return valueInfo{shape: out, dtype: "float32"}

	case "MaxPool", "AvgPool":
		if !v.arity(n, ins, 1) {
			return unknown
		}
		v.requireFloat32(n, ins)
		ksize, strides, pad := a.FilterSize, a.Strides, a.Pad
		x := ins[0].shape
		if x == nil {
			return unknown
		}
		if len(x) != 4 {
			v.errf(n, inputName(n, 0), "rank mismatch: pooling input must be rank 4 NHWC, got rank %d (%s)", len(x), shapeString(x))
			return unknown
		}
		oh := spatialOut(x[1], ksize[0], strides[0], pad)
		ow := spatialOut(x[2], ksize[1], strides[1], pad)
		if oh == 0 || ow == 0 {
			v.errf(n, inputName(n, 0), "pool window %v does not fit input %s with padding %q", ksize, shapeString(x), pad)
			return unknown
		}
		return valueInfo{shape: []int{x[0], oh, ow, x[3]}, dtype: "float32"}

	case "Mean":
		if !v.arity(n, ins, 1) {
			return unknown
		}
		v.requireFloat32(n, ins)
		x := ins[0].shape
		if x == nil {
			return unknown
		}
		// The kernel's own axes and output shape, on a partial shape: no
		// axes is every axis, and an unknown dim passes through.
		set, err := kernels.ReduceAxes("Mean", a.Axes, len(x))
		if err != nil {
			v.errf(n, inputName(n, 0), "%v (%s)", err, shapeString(x))
			return unknown
		}
		return valueInfo{shape: set.Shape([]int{}, x, a.KeepDims), dtype: "float32"}

	case "FusedBatchNorm":
		if !v.arity(n, ins, 5) {
			return unknown
		}
		v.requireFloat32(n, ins)
		x := ins[0].shape
		var c = DimUnknown
		if x != nil {
			if len(x) == 0 {
				v.errf(n, inputName(n, 0), "batch norm input must have rank >= 1, got a scalar")
				return unknown
			}
			c = x[len(x)-1]
		}
		// mean, variance, beta, gamma are per-channel vectors.
		for i := 1; i < 5; i++ {
			s := ins[i].shape
			if s == nil {
				continue
			}
			if len(s) != 1 {
				v.errf(n, inputName(n, i), "rank mismatch: batch-norm statistic must be rank 1, got rank %d (%s)", len(s), shapeString(s))
				continue
			}
			if s[0] != DimUnknown && c != DimUnknown && s[0] != c && s[0] != 1 {
				v.errf(n, inputName(n, i), "shape mismatch: statistic has %d channels, input has %d", s[0], c)
			}
		}
		return valueInfo{shape: x, dtype: "float32"}

	case "Reshape":
		if !v.arity(n, ins, 1) {
			return unknown
		}
		v.requireFloat32(n, ins)
		target, x := a.Shape, ins[0].shape
		if target == nil || x == nil || len(x) == 0 {
			return unknown
		}
		// The executor prepends the batch dim: out = [x[0], target...].
		out := append([]int{x[0]}, target...)
		if sz, known := shapeSizeKnown(x); known {
			if osz, oknown := shapeSizeKnown(out); oknown && osz != sz {
				v.errf(n, inputName(n, 0), "shape mismatch: cannot reshape %s (%d elements) to %s (%d elements)",
					shapeString(x), sz, shapeString(out), osz)
				return unknown
			}
		}
		return valueInfo{shape: out, dtype: "float32"}

	case "Flatten":
		if !v.arity(n, ins, 1) {
			return unknown
		}
		v.requireFloat32(n, ins)
		x := ins[0].shape
		if x == nil {
			return unknown
		}
		if len(x) == 0 {
			v.errf(n, inputName(n, 0), "flatten input must have rank >= 1, got a scalar")
			return unknown
		}
		rest := DimUnknown
		if sz, known := shapeSizeKnown(x[1:]); known {
			rest = sz
		}
		return valueInfo{shape: []int{x[0], rest}, dtype: "float32"}

	case "Pad":
		if !v.arity(n, ins, 1) {
			return unknown
		}
		v.requireFloat32(n, ins)
		p, x := a.Paddings, ins[0].shape
		if x == nil {
			return unknown
		}
		if len(x) != 4 {
			v.errf(n, inputName(n, 0), "rank mismatch: Pad input must be rank 4 NHWC, got rank %d (%s)", len(x), shapeString(x))
			return unknown
		}
		out := []int{x[0], addDim(x[1], p[2]+p[3]), addDim(x[2], p[4]+p[5]), x[3]}
		return valueInfo{shape: out, dtype: "float32"}
	}

	// The element-wise table's activations, which the plan compiler lowers
	// to their kernels.
	if op, ok := kernels.LookupElementwise(n.Op); ok && op.Activation != "" {
		if !v.arity(n, ins, 1) {
			return unknown
		}
		v.requireFloat32(n, ins)
		return valueInfo{shape: ins[0].shape, dtype: "float32"}
	}

	// Ops the plan compiler does not decode (it defers them to Execute,
	// where a feed may legally short-circuit them): unknown output.
	return unknown
}

// checkBias validates the optional per-channel bias operand of the fused
// kernels: rank 1, channel count matching the output channels.
func (v *verifier) checkBias(n *NodeDef, i int, bias valueInfo, outC int) {
	s := bias.shape
	if s == nil {
		return
	}
	if len(s) != 1 {
		v.errf(n, inputName(n, i), "rank mismatch: fused bias must be rank 1, got rank %d (%s)", len(s), shapeString(s))
		return
	}
	if s[0] != DimUnknown && outC != DimUnknown && s[0] != outC {
		v.errf(n, inputName(n, i), "shape mismatch: bias has %d channels, output has %d", s[0], outC)
	}
}

// convShape infers a convolution output shape, mirroring
// kernels.ComputeConv2DInfo but tolerating unknown dims. When every dim is
// known it delegates to ComputeConv2DInfo itself, so the verifier and the
// runtime kernels agree by construction.
func (v *verifier) convShape(n *NodeDef, x, filter []int, a kernels.Attrs, depthwise bool) (out []int, outC int, ok bool) {
	strides, pad := a.Strides, a.Pad
	if x != nil && len(x) != 4 {
		v.errf(n, inputName(n, 0), "rank mismatch: conv input must be rank 4 NHWC, got rank %d (%s)", len(x), shapeString(x))
		return nil, DimUnknown, false
	}
	if filter != nil && len(filter) != 4 {
		v.errf(n, inputName(n, 1), "rank mismatch: conv filter must be rank 4, got rank %d (%s)", len(filter), shapeString(filter))
		return nil, DimUnknown, false
	}
	if allKnown(x) && allKnown(filter) {
		info, err := kernels.ComputeConv2DInfo(x, filter, strides, []int{1, 1}, pad, depthwise)
		if err != nil {
			v.errf(n, inputName(n, 1), "%v", err)
			return nil, DimUnknown, false
		}
		if info.OutHeight <= 0 || info.OutWidth <= 0 {
			v.errf(n, inputName(n, 0), "filter %dx%d does not fit input %s with padding %q",
				info.FilterHeight, info.FilterWidth, shapeString(x), pad)
			return nil, DimUnknown, false
		}
		return []int{info.BatchSize, info.OutHeight, info.OutWidth, info.OutChannels}, info.OutChannels, true
	}
	// Partial inference.
	batch, inH, inW, inC := DimUnknown, DimUnknown, DimUnknown, DimUnknown
	if x != nil {
		batch, inH, inW, inC = x[0], x[1], x[2], x[3]
	}
	fh, fw, fin, fout := DimUnknown, DimUnknown, DimUnknown, DimUnknown
	if filter != nil {
		fh, fw, fin, fout = filter[0], filter[1], filter[2], filter[3]
	}
	if fin != DimUnknown && inC != DimUnknown && fin != inC {
		v.errf(n, inputName(n, 1), "shape mismatch: filter in-channels %d != input channels %d", fin, inC)
		return nil, DimUnknown, false
	}
	outC = fout
	if depthwise {
		outC = DimUnknown
		if inC != DimUnknown && fout != DimUnknown {
			outC = inC * fout
		}
	}
	oh, ow := DimUnknown, DimUnknown
	if inH != DimUnknown && fh != DimUnknown {
		oh = spatialOut(inH, fh, strides[0], pad)
	}
	if inW != DimUnknown && fw != DimUnknown {
		ow = spatialOut(inW, fw, strides[1], pad)
	}
	if oh == 0 || ow == 0 {
		v.errf(n, inputName(n, 0), "filter does not fit input %s with padding %q", shapeString(x), pad)
		return nil, DimUnknown, false
	}
	return []int{batch, oh, ow, outC}, outC, true
}

// ---------------------------------------------------------------------------
// Partial-shape arithmetic

// spatialOut computes one convolution/pooling output extent, the kernels'
// (kernels.OutExtent), for a stride of at least 1. A non-positive result
// means the filter does not fit.
func spatialOut(in, filter, stride int, pad string) int {
	if in == DimUnknown {
		return DimUnknown
	}
	return kernels.OutExtent(in, filter, stride, pad)
}

func addDim(d, delta int) int {
	if d == DimUnknown {
		return DimUnknown
	}
	return d + delta
}

// matDims returns the (rows, cols) of a rank-2 operand after an optional
// transpose; unknown rank yields unknown dims.
func matDims(s []int, transpose bool) (rows, cols int) {
	if s == nil || len(s) != 2 {
		return DimUnknown, DimUnknown
	}
	if transpose {
		return s[1], s[0]
	}
	return s[0], s[1]
}

// broadcastShapes merges two partial shapes under NumPy broadcasting,
// right-aligned. It reports false only on a provable conflict: both dims
// known, unequal, and neither 1. Unknown ranks broadcast to unknown rank.
func broadcastShapes(a, b []int) ([]int, bool) {
	if a == nil || b == nil {
		return nil, true
	}
	rank := len(a)
	if len(b) > rank {
		rank = len(b)
	}
	out := make([]int, rank)
	for i := 0; i < rank; i++ {
		da, db := 1, 1
		if i >= rank-len(a) {
			da = a[i-(rank-len(a))]
		}
		if i >= rank-len(b) {
			db = b[i-(rank-len(b))]
		}
		switch {
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		case da == DimUnknown || db == DimUnknown:
			out[i] = DimUnknown
			if da != DimUnknown {
				out[i] = da
			} else if db != DimUnknown {
				out[i] = db
			}
		case da == db:
			out[i] = da
		default:
			return nil, false
		}
	}
	return out, true
}

// allKnown reports whether the shape has known rank and all dims known.
func allKnown(s []int) bool {
	if s == nil {
		return false
	}
	for _, d := range s {
		if d == DimUnknown {
			return false
		}
	}
	return true
}

// shapeSizeKnown returns the element count when every dim is known.
func shapeSizeKnown(s []int) (int, bool) {
	if s == nil {
		return 0, false
	}
	n := 1
	for _, d := range s {
		if d == DimUnknown {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// shapeString renders a partial shape with ? for unknown dims.
func shapeString(s []int) string {
	if s == nil {
		return "[?rank]"
	}
	parts := make([]string, len(s))
	for i, d := range s {
		if d == DimUnknown {
			parts[i] = "?"
		} else {
			parts[i] = fmt.Sprint(d)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}
