package graphmodel

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/savedmodel"
	"repro/internal/telemetry"
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
	// hint is the pre-allocated per-step cost hint: the static flops
	// estimate plus this step's rolling measured-cost account (fed by the
	// backend's sharded loops whenever profiling is on). The backend
	// publishes it with one atomic store before the step runs, so the
	// parallelism grain reflects the step's real per-element work.
	hint    *exec.StepHint
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

// compilePlan builds the plan for graph g in execution order. measured
// selects the backend's grain source for every step (exec.CostModel): the
// static flop estimate, or the step's measured-cost account — the account
// itself is allocated (and fed) either way, so switching the model never
// discards history and the A/B arms profile identically.
func compilePlan(g *savedmodel.GraphDef, order []string, nodes map[string]*savedmodel.NodeDef, measured bool) *plan {
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
		st.hint = &exec.StepHint{
			Flops:    stepCost(n, g),
			Cost:     telemetry.NewCostAccount(),
			Measured: measured,
		}
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

// stepCost estimates a step's flops per output element from the const
// weight shapes. Only the weight-bearing heavy ops get a compile-time
// cost; everything else returns 0, which the backend maps to its
// per-kernel default. The contraction ops count a multiply and an add per
// reduced element (2·K); depthwise reduces only over the filter window.
func stepCost(n *savedmodel.NodeDef, g *savedmodel.GraphDef) int {
	wShape := func(i int) []int {
		if i >= len(n.Inputs) {
			return nil
		}
		if w, ok := g.Weights[n.Inputs[i]]; ok {
			return w.Shape
		}
		return nil
	}
	switch n.Op {
	case "MatMul", "_FusedMatMul":
		if s := wShape(1); len(s) == 2 {
			k := s[0]
			if attrBool(n.Attrs, "transpose_b") {
				k = s[1]
			}
			return 2 * k
		}
	case "Conv2D", "FusedConv2D":
		if s := wShape(1); len(s) == 4 {
			return 2 * s[0] * s[1] * s[2]
		}
	case "DepthwiseConv2dNative", "FusedDepthwiseConv2dNative":
		if s := wShape(1); len(s) == 4 {
			return 2 * s[0] * s[1]
		}
	}
	return 0
}

// noAttrs is the shared empty attribute bag for kernels that take none.
var noAttrs = kernels.Attrs{}

// opErr is an input-dependent lowering failure (a feed of the wrong rank, a
// reshape that does not fit): typed like the kernel errors, so callers such
// as the serving tier can tell a bad request from a broken model.
func opErr(kernel, node, format string, args ...any) error {
	return &core.OpError{Kernel: kernel, Err: fmt.Errorf("node %q: %s", node, fmt.Sprintf(format, args...))}
}

// compileStep lowers one node onto the kernels it dispatches: attributes are
// decoded and validated here, once, into closure state; the returned run
// does only container work. A node with no lowering, too few inputs or a
// malformed attribute compiles to a step that returns the problem when
// reached: a broken node only fails the Execute that reaches it, and a feed
// for that node still short-circuits it entirely.
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
	attrs := n.Attrs

	switch n.Op {
	case "Placeholder":
		return fail("graphmodel: node %q (%s) must be fed", n.Name, n.Op)
	case "Identity":
		return alias(func(in kernels.Input, st *step) error {
			st.info.Shape = append(st.info.Shape[:0], in.Shape...)
			return nil
		})
	case "Reshape":
		target := attrInts(attrs, "shape", nil)
		return alias(func(in kernels.Input, st *step) error {
			if len(in.Shape) == 0 {
				return opErr("Reshape", st.name, "Reshape of rank-0 input")
			}
			// [batch, target...] with one -1 inferred, as tensor.InferShape.
			st.info.Shape = append(st.info.Shape[:0], in.Shape[0])
			st.info.Shape = append(st.info.Shape, target...)
			size := tensor.ShapeSize(in.Shape)
			wild, known := -1, 1
			for i, d := range st.info.Shape {
				switch {
				case d == -1:
					if wild != -1 {
						return opErr("Reshape", st.name, "shape %v has more than one -1 dimension", st.info.Shape)
					}
					wild = i
				case d < 0:
					return opErr("Reshape", st.name, "shape %v has negative dimension %d", st.info.Shape, d)
				default:
					known *= d
				}
			}
			if wild == -1 {
				if known != size {
					return opErr("Reshape", st.name, "shape %v incompatible with %d elements", st.info.Shape, size)
				}
				return nil
			}
			if known == 0 || size%known != 0 {
				return opErr("Reshape", st.name, "cannot infer -1 in shape %v for %d elements", st.info.Shape, size)
			}
			st.info.Shape[wild] = size / known
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
		mmAttrs := kernels.Attrs{
			"transposeA": attrBool(attrs, "transpose_a"),
			"transposeB": attrBool(attrs, "transpose_b"),
		}
		var tmp kernels.TensorInfo
		var av, bv [3]int
		return with(2, func(x *execState, st *step) error {
			a, b := st.insBuf[0], st.insBuf[1]
			if len(a.Shape) != 2 || len(b.Shape) != 2 {
				return opErr("MatMul", st.name, "inputs must be rank 2, got %v and %v", a.Shape, b.Shape)
			}
			// BatchMatMul over rank-3 views in, rank-2 view out.
			av = [3]int{1, a.Shape[0], a.Shape[1]}
			bv = [3]int{1, b.Shape[0], b.Shape[1]}
			st.insBuf[0].Shape = av[:]
			st.insBuf[1].Shape = bv[:]
			if err := x.kernel("BatchMatMul", st.insBuf[:2], mmAttrs, &tmp); err != nil {
				return err
			}
			st.info.DataID, st.info.DType = tmp.DataID, tmp.DType
			st.info.Shape = append(st.info.Shape[:0], tmp.Shape[1], tmp.Shape[2])
			return nil
		})
	case "Add", "BiasAdd":
		return simple(2, "Add", noAttrs)
	case "Sub":
		return simple(2, "Sub", noAttrs)
	case "Mul":
		return simple(2, "Mul", noAttrs)
	case "Relu", "Relu6", "Sigmoid", "Tanh", "Elu", "Softplus":
		return simple(1, n.Op, noAttrs)
	case "Softmax":
		var tmp kernels.TensorInfo
		var flat [2]int
		return with(1, func(x *execState, st *step) error {
			in := st.insBuf[0]
			rank := len(in.Shape)
			if rank == 0 {
				return opErr("Softmax", st.name, "softmax requires rank >= 1")
			}
			inner := in.Shape[rank-1]
			if inner == 0 {
				return opErr("Softmax", st.name, "softmax over empty axis of shape %v", in.Shape)
			}
			flat = [2]int{tensor.ShapeSize(in.Shape) / inner, inner}
			st.insBuf[0].Shape = flat[:]
			if err := x.kernel("Softmax", st.insBuf[:1], noAttrs, &tmp); err != nil {
				return err
			}
			st.info.DataID, st.info.DType = tmp.DataID, tmp.DType
			st.info.Shape = append(st.info.Shape[:0], in.Shape...)
			return nil
		})
	case "Conv2D", "DepthwiseConv2dNative":
		return simple(2, n.Op, convKernelAttrs(attrs))
	case "FusedConv2D", "FusedDepthwiseConv2dNative":
		a := convKernelAttrs(attrs)
		a["activation"] = attrString(attrs, "activation", "")
		return fused(n.Op, a)
	case "_FusedMatMul":
		return fused("_FusedMatMul", kernels.Attrs{
			"transposeA": attrBool(attrs, "transpose_a"),
			"transposeB": attrBool(attrs, "transpose_b"),
			"activation": attrString(attrs, "activation", ""),
		})
	case "MaxPool", "AvgPool":
		filterSize := attrInts(attrs, "ksize", []int{2, 2})
		strides := attrInts(attrs, "strides", nil)
		if strides == nil {
			strides = filterSize
		}
		return simple(1, n.Op, kernels.Attrs{
			"filterSize": filterSize,
			"strides":    strides,
			"pad":        attrString(attrs, "padding", "valid"),
		})
	case "Mean":
		axesAttr := attrInts(attrs, "axes", nil)
		keep := attrBool(attrs, "keep_dims")
		// Reduction scratch, memoized on the input rank (stable in steady
		// state): normalized axes and, when the reduced axes are not already
		// innermost, the transpose permutation that makes them so.
		var tmp, red kernels.TensorInfo
		var normAxes []int
		var permAttrs kernels.Attrs
		var flat [2]int
		memoRank := -1
		return with(1, func(x *execState, st *step) error {
			in := st.insBuf[0]
			rank := len(in.Shape)
			if rank != memoRank {
				normAxes = normAxes[:0]
				if len(axesAttr) == 0 {
					for i := 0; i < rank; i++ {
						normAxes = append(normAxes, i)
					}
				} else {
					for _, a := range axesAttr {
						if a < 0 {
							a += rank
						}
						if a < 0 || a >= rank {
							return opErr("Mean", st.name, "axis %v out of range for rank %d", axesAttr, rank)
						}
						if !containsInt(normAxes, a) {
							normAxes = append(normAxes, a)
						}
					}
					sort.Ints(normAxes)
				}
				permAttrs = nil
				if !axesInner(normAxes, rank) {
					perm := make([]int, 0, rank)
					for i := 0; i < rank; i++ {
						if !containsInt(normAxes, i) {
							perm = append(perm, i)
						}
					}
					perm = append(perm, normAxes...)
					permAttrs = kernels.Attrs{"perm": perm}
				}
				memoRank = rank
			}
			inner := 1
			for _, a := range normAxes {
				inner *= in.Shape[a]
			}
			if inner == 0 {
				return opErr("Mean", st.name, "Mean over empty axis of shape %v", in.Shape)
			}
			outer := tensor.ShapeSize(in.Shape) / inner
			work := in
			if permAttrs != nil {
				if err := x.kernel("Transpose", st.insBuf[:1], permAttrs, &tmp); err != nil {
					return err
				}
				work = kernels.Input(tmp)
				// The transposed copy is step-internal: back to the pool once
				// Mean has read it, however Mean ends.
				defer x.free(work)
			}
			flat = [2]int{outer, inner}
			st.insBuf[0] = kernels.Input{DataID: work.DataID, Shape: flat[:], DType: work.DType}
			if err := x.kernel("Mean", st.insBuf[:1], noAttrs, &red); err != nil {
				return err
			}
			st.info.DataID, st.info.DType = red.DataID, red.DType
			st.info.Shape = st.info.Shape[:0]
			for i := 0; i < rank; i++ {
				switch {
				case !containsInt(normAxes, i):
					st.info.Shape = append(st.info.Shape, in.Shape[i])
				case keep:
					st.info.Shape = append(st.info.Shape, 1)
				}
			}
			return nil
		})
	case "FusedBatchNorm":
		return simple(5, "FusedBatchNorm", kernels.Attrs{
			"varianceEpsilon": attrFloat(attrs, "epsilon", 1e-3),
		})
	case "Pad":
		p := attrInts(attrs, "padding", nil)
		if len(p) != 4 {
			return fail("graphmodel: Pad node %q needs [top bottom left right], got %v", n.Name, p)
		}
		padAttrs := kernels.Attrs{
			"paddings":      []int{0, 0, p[0], p[1], p[2], p[3], 0, 0},
			"constantValue": float64(0),
		}
		return with(1, func(x *execState, st *step) error {
			if len(st.insBuf[0].Shape) != 4 {
				return opErr("PadV2", st.name, "Pad input must be rank 4, got %v", st.insBuf[0].Shape)
			}
			return x.kernel("PadV2", st.insBuf[:1], padAttrs, &st.info)
		})
	default:
		return fail("graphmodel: unsupported op %q (node %q)", n.Op, n.Name)
	}
}

// convKernelAttrs decodes the graph conv attributes shared by the plain
// and fused convs into the kernel attribute bag.
func convKernelAttrs(attrs map[string]any) kernels.Attrs {
	return kernels.Attrs{
		"strides":   attrInts(attrs, "strides", []int{1, 1}),
		"dilations": []int{1, 1},
		"pad":       attrString(attrs, "padding", "valid"),
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// axesInner reports whether axes are exactly the trailing dimensions.
func axesInner(axes []int, rank int) bool {
	for i, a := range axes {
		if a != rank-len(axes)+i {
			return false
		}
	}
	return true
}
