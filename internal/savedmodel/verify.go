package savedmodel

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// This file is the load-time graph verifier. Where the TensorFlow
// whitepaper (Abadi et al., 2015) checks a dataflow graph with one shape
// function per op, the same one its runtime runs, VerifyGraph walks every
// node of a GraphDef and checks it with the Resolve of the kernel its
// lowering (lower.go) dispatches: the check the kernel runs on every call,
// which touches no data and no backend. A node the plan cannot run is
// rejected with a node diagnostic before the first Execute, at load or
// convert time, and the verifier holds no shape rule of its own.
//
// Unknown shapes follow one rule. A placeholder's unknown leading dim is
// probed as the batch size (1 for VerifyGraph). A value of unknown rank, or
// with any other unknown dim, is unknown, and the nodes downstream of it
// are not shape-checked. An op with no lowering produces an unknown value,
// not an issue: a feed may short-circuit it at Execute time, so only the
// Execute that reaches it fails.

// VerifyIssue is one provable inconsistency found by VerifyGraph.
type VerifyIssue struct {
	// Node and Op identify the inconsistent node.
	Node string
	Op   string
	// Edge names the offending input edge, when the problem is tied to one
	// ("" when the node itself, or its kernel's check, is the problem).
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

// VerifyGraph checks every node of g and returns a *VerifyError listing
// every provable inconsistency, or nil. It does not require Validate to
// have passed: a dangling input edge is an issue, not a panic.
func VerifyGraph(g *GraphDef) error {
	_, err := InferShapes(g, 1)
	return err
}

// InferShapes is VerifyGraph's shape pass with each placeholder's unknown
// leading dim set to batch: every node's output shape, nil when unknown,
// and the *VerifyError, if any.
func InferShapes(g *GraphDef, batch int) (map[string][]int, error) {
	v := &verifier{g: g, batch: batch,
		nodes:  make(map[string]*NodeDef, len(g.Nodes)),
		values: make(map[string]value, len(g.Nodes)),
		state:  make(map[string]int, len(g.Nodes))}
	for i := range g.Nodes {
		v.nodes[g.Nodes[i].Name] = &g.Nodes[i]
	}
	// Every node, not only those the outputs reach: a malformed subgraph is
	// reported at convert time too.
	shapes := make(map[string][]int, len(g.Nodes))
	for i := range g.Nodes {
		if val := v.visit(&g.Nodes[i]); val.known {
			shapes[g.Nodes[i].Name] = val.Shape
		}
	}
	if len(v.issues) > 0 {
		return shapes, &VerifyError{Issues: v.issues}
	}
	return shapes, nil
}

// value is one node's output: its dtype, and its shape when known.
type value struct {
	kernels.Input
	known bool
}

var unknown = value{Input: kernels.Input{DType: tensor.Float32}}

type verifier struct {
	g      *GraphDef
	batch  int
	nodes  map[string]*NodeDef
	values map[string]value
	state  map[string]int // 0 unvisited, 1 visiting, 2 done
	issues []VerifyIssue
}

func (v *verifier) errf(n *NodeDef, edge, format string, args ...any) {
	v.issues = append(v.issues, VerifyIssue{
		Node: n.Name, Op: n.Op, Edge: edge, Msg: fmt.Sprintf(format, args...),
	})
}

// visit checks n after its inputs, in dependency order.
func (v *verifier) visit(n *NodeDef) value {
	switch v.state[n.Name] {
	case 1:
		// A cycle: report it once and break the recursion.
		v.errf(n, "", "node participates in a cycle")
		v.state[n.Name] = 2
		v.values[n.Name] = unknown
		return unknown
	case 2:
		return v.values[n.Name]
	}
	v.state[n.Name] = 1
	ins := make([]value, len(n.Inputs))
	for i, name := range n.Inputs {
		dep, ok := v.nodes[name]
		if !ok {
			v.errf(n, name, "input edge references undeclared node")
			ins[i] = unknown
			continue
		}
		ins[i] = v.visit(dep)
	}
	out := v.check(n, ins)
	v.state[n.Name] = 2
	v.values[n.Name] = out
	return out
}

// check computes n's output from its inputs, reporting what its lowering
// and its kernel reject.
func (v *verifier) check(n *NodeDef, ins []value) value {
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
		dt, err := tensor.ParseDataType(w.DType)
		if err != nil {
			v.errf(n, "", "%v", err)
			return unknown
		}
		return value{kernels.Input{Shape: w.Shape, DType: dt}, true}
	case "Placeholder":
		out := value{kernels.Input{Shape: a.Shape, DType: a.DType}, a.Shape != nil}
		for i, d := range a.Shape {
			switch {
			case d >= 0:
			case i == 0:
				out.Shape[0] = v.batch
			default:
				out.known = false
			}
		}
		return out
	}
	l, ok := Lower(n.Op)
	if !ok {
		return unknown
	}
	if err := l.CheckArity(len(ins)); err != nil {
		v.errf(n, "", "%v", err)
		return unknown
	}
	// The one graph-level rule: every op the plan lowers runs float32 math.
	float := true
	for i, in := range ins {
		if in.DType != tensor.Float32 {
			v.errf(n, n.Inputs[i], "dtype mismatch: %s has dtype %s, %s requires float32", n.Inputs[i], in.DType, n.Op)
			float = false
		}
	}
	if !float {
		return unknown
	}
	inputs := make([]kernels.Input, len(ins))
	for i, in := range ins {
		if !in.known {
			return unknown
		}
		if err := l.CheckRank(n.Op, in.Shape); err != nil {
			v.errf(n, n.Inputs[i], "%v", err)
			return unknown
		}
		inputs[i] = in.Input
	}
	if l.Alias != nil {
		shape, err := l.Alias(nil, inputs[0].Shape, a)
		if err != nil {
			v.errf(n, "", "%v", err)
			return unknown
		}
		return value{kernels.Input{Shape: shape, DType: inputs[0].DType}, true}
	}
	var out kernels.TensorInfo
	if err := resolve(l.Kernel, inputs, a, &out); err != nil {
		v.errf(n, "", "%v", err)
		return unknown
	}
	return value{kernels.Input{Shape: out.Shape, DType: out.DType}, true}
}

// resolve runs kernel's own check, its range-table entry's Resolve, on a
// call with inputs: it describes the output in out and touches no data.
func resolve(kernel string, inputs []kernels.Input, a kernels.Attrs, out *kernels.TensorInfo) error {
	k, ok := kernels.LookupKernel(kernel)
	if !ok {
		return fmt.Errorf("kernel %s has no range-table entry", kernel)
	}
	_, err := k.Resolve(kernel, inputs, a, out)
	return err
}
