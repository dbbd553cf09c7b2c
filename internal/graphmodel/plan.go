package graphmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

// This file compiles the (optimized) graph into the execution plan: a flat
// step slice over integer slots, every attribute decoded once at load time,
// each op lowered straight onto the kernels it dispatches. Execute
// (execute.go) then runs the plan over backend data containers with no map
// lookups, no attr parsing, no graph traversal and no per-step tensor
// handles: every step writes its output descriptor into preallocated
// per-step scratch, output buffers come from the backend's free lists, and
// intermediates return to those free lists at their statically-computed
// last use. There is one lowering per op and one plan per model, whatever
// the backend and whoever is observing.
//
// Identity, Reshape and Flatten compile to pure aliases — no kernel, no new
// container, just a shape rewrite over the input's container. A union-find
// over alias edges groups slots into "roots" (one root per physical
// container); liveness and disposal operate on roots so an alias can never
// outlive or free its underlying buffer incorrectly.

// step executes one node against backend containers. run fills st.info (the
// output descriptor) from the operand Inputs in st.insBuf; all slices it
// touches are preallocated scratch reused across executions — safe because
// executions serialize on the model's engine lock.
type step struct {
	name    string // node name, for error attribution
	op      string
	ins     []int
	inNames []string
	out     int
	alias   bool // out shares the input's data container
	run     func(x *execState, st *step) error
	info    kernels.TensorInfo // output descriptor scratch
	insBuf  []kernels.Input    // operand scratch
	dispose []int              // roots whose last reader this step is
}

// plan is a compiled model plus its per-model execution state. The compiled
// part is immutable after New; the state is reused across executions, which
// the engine execution lock serializes (Model.Execute always runs under
// RunExclusive).
type plan struct {
	steps    []step
	slots    map[string]int // node name → slot
	numSlots int
	// root maps each slot to its alias-group representative: the slot whose
	// step actually produces (or is seeded with) the physical container.
	root []int
	// weightSlots pairs each Const node's slot with its weight name, for
	// seeding the slot environment from the uploaded weights.
	weightSlots []weightSlot
	outSlots    []int
	state       execState
}

type weightSlot struct {
	slot int
	name string
}

// compilePlan builds the plan for graph g in execution order.
func compilePlan(g *savedmodel.GraphDef, order []string, nodes map[string]*savedmodel.NodeDef) *plan {
	p := &plan{slots: make(map[string]int, len(order)), numSlots: len(order)}
	for i, name := range order {
		p.slots[name] = i
	}
	p.root = make([]int, p.numSlots)
	for i := range p.root {
		p.root[i] = i
	}
	// persistent marks roots holding weights, placeholders or outputs —
	// never disposed mid-execution.
	persistent := make([]bool, p.numSlots)
	for _, name := range order {
		n, ok := nodes[name]
		if !ok {
			continue
		}
		slot := p.slots[name]
		if n.Op == "Const" {
			// Weight slots are seeded from the uploaded weights, not
			// executed. (Validate guarantees every Const has a weight.)
			p.weightSlots = append(p.weightSlots, weightSlot{slot: slot, name: name})
			persistent[slot] = true
			continue
		}
		st := compileStep(n, slot, p.slots)
		if st.alias {
			p.root[slot] = p.root[st.ins[0]]
		}
		if n.Op == "Placeholder" {
			// Placeholders are fed at Execute time; the step only fires if
			// the feed is missing.
			persistent[slot] = true
		}
		p.steps = append(p.steps, st)
	}
	for _, out := range g.Outputs {
		s := p.slots[out]
		persistent[p.root[s]] = true
		p.outSlots = append(p.outSlots, s)
	}
	// Liveness over roots: the step last reading a root disposes it, so peak
	// memory tracks the graph's live set instead of its node count. An alias
	// step never disposes its own output's root (the alias keeps the
	// container alive).
	seen := make([]bool, p.numSlots)
	for i := len(p.steps) - 1; i >= 0; i-- {
		st := &p.steps[i]
		outRoot := p.root[st.out]
		for _, s := range st.ins {
			r := p.root[s]
			if !seen[r] && !persistent[r] && r != outRoot {
				st.dispose = append(st.dispose, r)
			}
			seen[r] = true
		}
	}
	p.state = execState{
		env:   make([]kernels.Input, p.numSlots),
		fed:   make([]bool, p.numSlots),
		owned: make([]bool, p.numSlots),
	}
	return p
}

// opErr is an input-dependent lowering failure (a feed of the wrong rank, a
// reshape that does not fit): typed like the kernel errors, so callers such
// as the serving tier can tell a bad request from a broken model.
func opErr(kernel, node, format string, args ...any) error {
	return &core.OpError{Kernel: kernel, Err: fmt.Errorf("node %q: %s", node, fmt.Sprintf(format, args...))}
}

// compileStep lowers one node onto the kernels it dispatches: its
// attributes are decoded once (savedmodel.DecodeAttrs) into the
// kernels.Attrs its steps pass; the returned run does only container work.
// A node with no lowering or too few inputs compiles to a step that returns
// the problem when reached: such a node only fails the Execute that reaches
// it, and a feed for that node still short-circuits it entirely. So does a
// malformed attribute when the model loads without verification; with it,
// the verifier rejects the model at load.
func compileStep(n *savedmodel.NodeDef, slot int, slots map[string]int) step {
	ins := make([]int, len(n.Inputs))
	for i, in := range n.Inputs {
		ins[i] = slots[in]
	}
	st := step{name: n.Name, op: n.Op, ins: ins, inNames: n.Inputs, out: slot,
		insBuf: make([]kernels.Input, len(ins))}
	// fail builds the error step. It keeps the node's inputs, so liveness
	// (and planvet) see an ordinary step in its place.
	fail := func(format string, args ...any) step {
		err := fmt.Errorf(format, args...)
		st.run = func(*execState, *step) error { return err }
		return st
	}
	// with builds a step that resolves its operands into st.insBuf and then
	// calls run; fewer than arity inputs is a deferred error.
	with := func(arity int, run func(x *execState, st *step) error) step {
		if len(ins) < arity {
			return fail("graphmodel: node %q (%s) missing input %d", n.Name, n.Op, arity-1)
		}
		st.run = func(x *execState, st *step) error {
			if err := x.operands(st); err != nil {
				return err
			}
			return run(x, st)
		}
		return st
	}
	// simple is a one-kernel step over its first arity operands.
	simple := func(arity int, kernel string, attrs kernels.Attrs) step {
		return with(arity, func(x *execState, st *step) error {
			return x.kernel(kernel, st.insBuf[:arity], attrs, &st.info)
		})
	}
	// fused is simple with the 2-or-3-input arity of the fused kernels
	// (the bias operand is optional).
	fused := func(kernel string, attrs kernels.Attrs) step {
		if len(ins) != 2 && len(ins) != 3 {
			return fail("graphmodel: node %q (%s) needs 2 or 3 inputs, got %d", n.Name, n.Op, len(ins))
		}
		return simple(len(ins), kernel, attrs)
	}
	// alias builds a zero-copy step: out shares the input container, only
	// the shape differs. shape appends the output dims into st.info.Shape.
	alias := func(shape func(in kernels.Input, st *step) error) step {
		s := with(1, func(x *execState, st *step) error {
			in := st.insBuf[0]
			if err := shape(in, st); err != nil {
				return err
			}
			st.info.DataID, st.info.DType = in.DataID, in.DType
			return nil
		})
		s.alias = len(ins) > 0
		return s
	}
	a, err := savedmodel.DecodeAttrs(n)
	if err != nil {
		return fail("graphmodel: %v", err)
	}

	switch n.Op {
	case "Placeholder":
		return fail("graphmodel: node %q (%s) must be fed", n.Name, n.Op)
	case "Identity":
		return alias(func(in kernels.Input, st *step) error {
			st.info.Shape = append(st.info.Shape[:0], in.Shape...)
			return nil
		})
	case "Reshape":
		return alias(func(in kernels.Input, st *step) error {
			if len(in.Shape) == 0 {
				return opErr("Reshape", st.name, "Reshape of rank-0 input")
			}
			// [batch, target...] with one -1 inferred.
			st.info.Shape = append(append(st.info.Shape[:0], in.Shape[0]), a.Shape...)
			if err := tensor.InferInto(st.info.Shape, tensor.ShapeSize(in.Shape)); err != nil {
				return opErr("Reshape", st.name, "%v", err)
			}
			return nil
		})
	case "Flatten":
		return alias(func(in kernels.Input, st *step) error {
			if len(in.Shape) == 0 || in.Shape[0] == 0 {
				return opErr("Reshape", st.name, "cannot flatten shape %v", in.Shape)
			}
			st.info.Shape = append(st.info.Shape[:0], in.Shape[0], tensor.ShapeSize(in.Shape)/in.Shape[0])
			return nil
		})
	case "MatMul":
		return simple(2, "BatchMatMul", a)
	case "Add", "BiasAdd":
		return simple(2, "Add", a)
	case "Sub", "Mul", "Conv2D", "DepthwiseConv2dNative":
		return simple(2, n.Op, a)
	case "Softmax", "MaxPool", "AvgPool", "Mean":
		return simple(1, n.Op, a)
	case "FusedConv2D", "FusedDepthwiseConv2dNative", "_FusedMatMul":
		return fused(n.Op, a)
	case "FusedBatchNorm":
		return simple(5, "FusedBatchNorm", a)
	case "Pad":
		return with(1, func(x *execState, st *step) error {
			if len(st.insBuf[0].Shape) != 4 {
				return opErr("PadV2", st.name, "Pad input must be rank 4, got %v", st.insBuf[0].Shape)
			}
			return x.kernel("PadV2", st.insBuf[:1], a, &st.info)
		})
	default:
		if op, ok := kernels.LookupElementwise(n.Op); ok && op.Activation != "" {
			return simple(1, n.Op, a)
		}
		return fail("graphmodel: unsupported op %q (node %q)", n.Op, n.Name)
	}
}
