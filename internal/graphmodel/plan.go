package graphmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/savedmodel"
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

// compileStep builds one node's step from its lowering
// (savedmodel.Lower): a kernel step over the node's operands, or an alias
// step. Its attributes are decoded once (savedmodel.DecodeAttrs) into the
// kernels.Attrs the step passes; the returned run does only container
// work. The verifier has rejected at load every node whose lowering or
// kernel check fails; a node with no lowering compiles to a step that
// returns the problem when reached, so it only fails the Execute that
// reaches it, and a feed for that node short-circuits it entirely.
func compileStep(n *savedmodel.NodeDef, slot int, slots map[string]int) step {
	ins := make([]int, len(n.Inputs))
	for i, in := range n.Inputs {
		ins[i] = slots[in]
	}
	st := step{name: n.Name, op: n.Op, ins: ins, inNames: n.Inputs, out: slot,
		insBuf: make([]kernels.Input, len(ins))}
	// fail builds the error step. It keeps the node's inputs, so liveness
	// (and planvet) see an ordinary step in its place.
	fail := func(err error) step {
		st.run = func(*execState, *step) error { return err }
		return st
	}
	if n.Op == "Placeholder" {
		return fail(fmt.Errorf("graphmodel: node %q (%s) must be fed", n.Name, n.Op))
	}
	l, ok := savedmodel.Lower(n.Op)
	if !ok {
		return fail(fmt.Errorf("graphmodel: unsupported op %q (node %q)", n.Op, n.Name))
	}
	a, err := savedmodel.DecodeAttrs(n)
	if err != nil {
		return fail(fmt.Errorf("graphmodel: %v", err))
	}
	if err := l.CheckArity(len(ins)); err != nil {
		return fail(fmt.Errorf("graphmodel: node %q (%s) %v", n.Name, n.Op, err))
	}
	if l.Alias != nil {
		// Zero-copy: out shares the input container, only the shape differs.
		st.alias = true
		st.run = func(x *execState, st *step) error {
			if err := x.operands(st); err != nil {
				return err
			}
			in := st.insBuf[0]
			shape, err := l.Alias(st.info.Shape, in.Shape, a)
			if err != nil {
				return opErr("Reshape", st.name, "%v", err)
			}
			st.info.Shape, st.info.DataID, st.info.DType = shape, in.DataID, in.DType
			return nil
		}
		return st
	}
	kernel := l.Kernel
	st.run = func(x *execState, st *step) error {
		if err := x.operands(st); err != nil {
			return err
		}
		if l.Rank != 0 {
			for _, in := range st.insBuf {
				if err := l.CheckRank(st.op, in.Shape); err != nil {
					return opErr(kernel, st.name, "%v", err)
				}
			}
		}
		return x.kernel(kernel, st.insBuf, a, &st.info)
	}
	return st
}
