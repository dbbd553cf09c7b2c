package graphmodel

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/kernels"
	"repro/internal/savedmodel"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file is the graph optimizer — the Grappler analogue that runs once
// at load time, before the execution plan is compiled. It rewrites the
// (cloned) GraphDef through four passes:
//
//  1. elideIdentities   — splice Identity nodes out of the edge list
//  2. foldConstants     — fold shape-only ops (Reshape/Flatten) of Consts
//  3. foldBatchNorms    — fold Conv→FusedBatchNorm into the conv's weights
//                         plus a BiasAdd, exposing the fusion pattern below
//  4. fusePatterns      — rewrite Conv2D|DepthwiseConv2D|MatMul → BiasAdd →
//                         {activation} chains into the fused kernels
//
// followed by a reachability prune. Every rewrite emits a KindRewrite
// telemetry event and increments OptimizeStats, so fusion is observable; it
// is defeatable with exec.WithOptimize(false), which executes the graph
// exactly as converted — the reference arm of the fusion parity tests.

// OptimizeStats reports what the load-time graph optimizer did.
type OptimizeStats struct {
	// Enabled is false when the model was loaded with exec.WithOptimize(false);
	// all other fields are then zero.
	Enabled bool `json:"enabled"`
	// NodesBefore/NodesAfter count graph nodes around the whole pipeline.
	NodesBefore int `json:"nodes_before"`
	NodesAfter  int `json:"nodes_after"`
	// Fused pattern instances by result kernel.
	FusedConv2D          int `json:"fused_conv2d"`
	FusedDepthwiseConv2D int `json:"fused_depthwise_conv2d"`
	FusedMatMul          int `json:"fused_matmul"`
	// FoldedBatchNorms counts Conv→FusedBatchNorm folds into weights+bias.
	FoldedBatchNorms int `json:"folded_batch_norms"`
	// FoldedConstants counts shape-only ops folded into their Const input.
	FoldedConstants int `json:"folded_constants"`
	// ElidedIdentities counts Identity nodes spliced out.
	ElidedIdentities int `json:"elided_identities"`
	// PrunedNodes counts nodes removed by the final reachability prune.
	PrunedNodes int `json:"pruned_nodes"`
	// Patterns counts every rewrite by its telemetry label
	// (e.g. "fuse:Conv2D+BiasAdd+Relu6").
	Patterns map[string]int `json:"patterns,omitempty"`
}

// optimizer carries the mutable state of one optimization run.
type optimizer struct {
	g     *savedmodel.GraphDef
	stats *OptimizeStats
	hub   *telemetry.Hub
	span  string

	// The indexes, built once and kept up to date by every rewrite: a
	// node's position in g.Nodes, the consumers of each node (one entry per
	// edge, removed nodes' edges included) and the graph outputs.
	nodes     map[string]int
	consumers map[string][]string
	outputs   map[string]bool
	removed   map[string]bool
}

// optimize runs the rewrite pipeline over a clone of g, returning the
// rewritten graph and the stats. The input graph is never mutated.
func optimize(g *savedmodel.GraphDef, hub *telemetry.Hub, span string) (*savedmodel.GraphDef, OptimizeStats) {
	o := &optimizer{
		g:     g.Clone(),
		stats: &OptimizeStats{Enabled: true, NodesBefore: len(g.Nodes), Patterns: map[string]int{}},
		hub:   hub,
		span:  span,
	}
	o.index()
	o.elideIdentities()
	o.foldConstants()
	o.foldBatchNorms()
	o.fusePatterns()
	o.prune()
	o.compact()
	o.stats.NodesAfter = len(o.g.Nodes)
	return o.g, *o.stats
}

// index builds the name→node, consumer and output indexes.
func (o *optimizer) index() {
	o.nodes = make(map[string]int, len(o.g.Nodes))
	for i := range o.g.Nodes {
		o.nodes[o.g.Nodes[i].Name] = i
	}
	o.consumers = o.g.Consumers()
	o.outputs = make(map[string]bool, len(o.g.Outputs))
	for _, out := range o.g.Outputs {
		o.outputs[out] = true
	}
	o.removed = map[string]bool{}
}

// node returns the node named name, or nil. The pointer is good until the
// next addConst, which may grow g.Nodes.
func (o *optimizer) node(name string) *savedmodel.NodeDef {
	i, ok := o.nodes[name]
	if !ok {
		return nil
	}
	return &o.g.Nodes[i]
}

// setInputs replaces n's input edges with inputs, in the consumer index
// too.
func (o *optimizer) setInputs(n *savedmodel.NodeDef, inputs []string) {
	for _, in := range n.Inputs {
		cs := o.consumers[in]
		if i := slices.Index(cs, n.Name); i >= 0 {
			o.consumers[in] = slices.Delete(cs, i, i+1)
		}
	}
	n.Inputs = inputs
	for _, in := range inputs {
		o.consumers[in] = append(o.consumers[in], n.Name)
	}
}

// record logs one rewrite: a telemetry event plus the stats counters.
func (o *optimizer) record(pattern, node string, nodesRemoved int) {
	o.stats.Patterns[pattern]++
	o.hub.Emit(telemetry.Event{
		Kind:  telemetry.KindRewrite,
		Name:  pattern,
		Span:  o.span,
		Trace: node,
		Count: nodesRemoved,
	})
}

// soleConsumer returns the single consumer of name, or "" when name has
// more than one consumer, no consumer, or is a graph output — the refusal
// conditions for absorbing a node into a fused successor.
func (o *optimizer) soleConsumer(name string) string {
	if o.outputs[name] {
		return ""
	}
	cs := o.consumers[name]
	if len(cs) != 1 {
		return ""
	}
	// The same edge may appear twice (a node consuming its input twice).
	return cs[0]
}

// constWeight returns the weight behind name when it is a live Const node.
func (o *optimizer) constWeight(name string) (*savedmodel.Weight, bool) {
	n := o.node(name)
	if n == nil || o.removed[n.Name] || n.Op != "Const" {
		return nil, false
	}
	w, ok := o.g.Weights[name]
	return w, ok
}

// rewire replaces every consumer edge (and output reference) pointing at
// from with to.
func (o *optimizer) rewire(from, to string) {
	for _, cname := range o.consumers[from] {
		c := o.node(cname)
		for i, in := range c.Inputs {
			if in == from {
				c.Inputs[i] = to
			}
		}
		o.consumers[to] = append(o.consumers[to], cname)
	}
	for i, out := range o.g.Outputs {
		if out == from {
			o.g.Outputs[i] = to
			delete(o.outputs, from)
			o.outputs[to] = true
		}
	}
	o.consumers[from] = nil
}

// addConst installs a new Const node with the given weight payload and
// returns its name (unique by construction: optimizer-generated names use
// a "/opt#" suffix no exported graph produces).
func (o *optimizer) addConst(base string, shape []int, values []float32) string {
	name := base
	for i := 0; ; i++ {
		if _, taken := o.nodes[name]; !taken {
			break
		}
		name = fmt.Sprintf("%s/opt%d", base, i)
	}
	o.nodes[name] = len(o.g.Nodes)
	o.g.Nodes = append(o.g.Nodes, savedmodel.NodeDef{Name: name, Op: "Const"})
	o.g.Weights[name] = &savedmodel.Weight{
		Name: name, Shape: tensor.CopyShape(shape), DType: "float32", Values: values,
	}
	return name
}

// elideIdentities splices out every Identity node that is not itself a
// graph output (an output Identity must keep producing a tensor under its
// own name).
func (o *optimizer) elideIdentities() {
	for i := range o.g.Nodes {
		n := &o.g.Nodes[i]
		if n.Op != "Identity" || o.removed[n.Name] || o.outputs[n.Name] || len(n.Inputs) != 1 {
			continue
		}
		o.rewire(n.Name, n.Inputs[0])
		o.removed[n.Name] = true
		o.stats.ElidedIdentities++
		o.record("elide:Identity", n.Name, 1)
	}
}

// foldConstants folds shape-only ops applied to a Const — Reshape and
// Flatten — into a fresh Const with the adjusted shape. The values slice is
// shared with the original weight (row-major data is reshape-invariant).
func (o *optimizer) foldConstants() {
	for i := range o.g.Nodes {
		n := &o.g.Nodes[i]
		if o.removed[n.Name] || len(n.Inputs) != 1 {
			continue
		}
		w, ok := o.constWeight(n.Inputs[0])
		if !ok {
			continue
		}
		var shape []int
		switch n.Op {
		case "Reshape":
			// Mirrors the executor's Reshape lowering: the leading (batch)
			// dimension is preserved, the attr gives the rest.
			a, err := savedmodel.DecodeAttrs(n)
			target := a.Shape
			if err != nil || len(w.Shape) == 0 || tensor.ShapeSize(append([]int{w.Shape[0]}, target...)) != tensor.ShapeSize(w.Shape) {
				continue
			}
			shape = append([]int{w.Shape[0]}, target...)
		case "Flatten":
			if len(w.Shape) == 0 || w.Shape[0] == 0 {
				continue
			}
			shape = []int{w.Shape[0], tensor.ShapeSize(w.Shape) / w.Shape[0]}
		default:
			continue
		}
		folded := o.addConst(n.Name+"/folded", shape, w.Values)
		// addConst may grow the node slice; re-take the pointer.
		n = &o.g.Nodes[i]
		o.rewire(n.Name, folded)
		o.removed[n.Name] = true
		o.stats.FoldedConstants++
		o.record("fold:"+n.Op+"(Const)", n.Name, 1)
	}
}

// foldBatchNorms folds Conv2D|DepthwiseConv2dNative → FusedBatchNorm (with
// Const statistics) into scaled conv weights plus a BiasAdd:
//
//	scale[c] = gamma[c] / sqrt(var[c] + eps)
//	w'[..., c] = w[..., c] * scale[c]
//	bias[c] = beta[c] - mean[c] * scale[c]
//
// The BiasAdd this leaves behind is what fusePatterns then absorbs into a
// fused conv — this is the pass that makes fusion fire on batch-normalized
// models (MobileNet's Conv→BN→Relu6 blocks carry no BiasAdd of their own).
func (o *optimizer) foldBatchNorms() {
	for i := range o.g.Nodes {
		bn := &o.g.Nodes[i]
		if bn.Op != "FusedBatchNorm" || o.removed[bn.Name] || len(bn.Inputs) != 5 {
			continue
		}
		conv := o.node(bn.Inputs[0])
		if conv == nil || o.removed[conv.Name] || (conv.Op != "Conv2D" && conv.Op != "DepthwiseConv2dNative") {
			continue
		}
		// Refuse when the conv output feeds anything besides this BN: the
		// pre-BN activations would change under folded weights.
		if o.soleConsumer(conv.Name) != bn.Name || len(conv.Inputs) != 2 {
			continue
		}
		filter, ok := o.constWeight(conv.Inputs[1])
		if !ok || len(filter.Shape) != 4 {
			continue
		}
		mean, okM := o.constWeight(bn.Inputs[1])
		variance, okV := o.constWeight(bn.Inputs[2])
		beta, okB := o.constWeight(bn.Inputs[3])
		gamma, okG := o.constWeight(bn.Inputs[4])
		if !okM || !okV || !okB || !okG {
			continue
		}
		// Output channels: [fh,fw,inC,outC] for Conv2D, inC*mult for
		// depthwise — either way the product of the trailing dims the flat
		// filter index cycles through.
		outC := filter.Shape[2] * filter.Shape[3]
		if conv.Op == "Conv2D" {
			outC = filter.Shape[3]
		}
		if len(mean.Values) != outC || len(variance.Values) != outC ||
			len(beta.Values) != outC || len(gamma.Values) != outC {
			continue
		}
		a, err := savedmodel.DecodeAttrs(bn)
		if err != nil {
			continue
		}
		eps := a.Epsilon
		scale := make([]float32, outC)
		bias := make([]float32, outC)
		for c := 0; c < outC; c++ {
			scale[c] = gamma.Values[c] / float32(math.Sqrt(float64(variance.Values[c])+eps))
			bias[c] = beta.Values[c] - mean.Values[c]*scale[c]
		}
		// Per-output-channel filter scaling: the flat filter index walks the
		// output channel fastest for both layouts ([fh,fw,inC,outC] and
		// [fh,fw,inC,mult] with channel ic*mult+q), so channel = i % outC.
		foldedW := make([]float32, len(filter.Values))
		for i, v := range filter.Values {
			foldedW[i] = v * scale[i%outC]
		}
		wName := o.addConst(conv.Name+"/bn_folded_filter", filter.Shape, foldedW)
		bName := o.addConst(bn.Name+"/bn_folded_bias", []int{outC}, bias)
		conv = o.node(conv.Name) // re-take: addConst may grow g.Nodes
		bn = o.node(bn.Name)
		o.setInputs(conv, []string{conv.Inputs[0], wName})
		// The BN node becomes the BiasAdd, keeping its name so downstream
		// edges (and graph outputs) stay valid.
		bn.Op = "BiasAdd"
		o.setInputs(bn, []string{conv.Name, bName})
		bn.Attrs = nil
		o.stats.FoldedBatchNorms++
		o.record("fold:"+conv.Op+"+FusedBatchNorm", bn.Name, 0)
	}
}

// biasOperand splits a BiasAdd/Add node into (conv-side input, bias const)
// given the name of the upstream node whose output is being biased. Add is
// accepted with the operands in either order.
func (o *optimizer) biasOperand(add *savedmodel.NodeDef, upstream string, outC int) (string, bool) {
	if len(add.Inputs) != 2 {
		return "", false
	}
	var biasName string
	switch {
	case add.Inputs[0] == upstream:
		biasName = add.Inputs[1]
	case add.Op == "Add" && add.Inputs[1] == upstream:
		biasName = add.Inputs[0]
	default:
		return "", false
	}
	w, ok := o.constWeight(biasName)
	if !ok || len(w.Shape) != 1 || w.Shape[0] != outC {
		return "", false
	}
	return biasName, true
}

// fusePatterns rewrites Conv2D|DepthwiseConv2dNative|MatMul → BiasAdd|Add →
// {activation,∅} chains into the fused kernels. The chain's tail node is
// rewritten in place (keeping its name); the absorbed upstream nodes are
// removed. Refusals: an intermediate with a second consumer, an
// intermediate that is a graph output, a non-Const or wrongly-shaped bias,
// or an activation outside the fused set.
func (o *optimizer) fusePatterns() {
	for i := range o.g.Nodes {
		root := &o.g.Nodes[i]
		if o.removed[root.Name] {
			continue
		}
		// A malformed root is left to the verifier.
		a, err := savedmodel.DecodeAttrs(root)
		if err != nil {
			continue
		}
		var fusedOp string
		var outC int
		switch root.Op {
		case "Conv2D", "DepthwiseConv2dNative":
			if len(root.Inputs) != 2 {
				continue
			}
			filter, ok := o.constWeight(root.Inputs[1])
			if !ok || len(filter.Shape) != 4 {
				continue
			}
			if root.Op == "Conv2D" {
				fusedOp = "FusedConv2D"
				outC = filter.Shape[3]
			} else {
				fusedOp = "FusedDepthwiseConv2dNative"
				outC = filter.Shape[2] * filter.Shape[3]
			}
		case "MatMul":
			if len(root.Inputs) != 2 {
				continue
			}
			w, ok := o.constWeight(root.Inputs[1])
			if !ok || len(w.Shape) != 2 {
				continue
			}
			fusedOp = "_FusedMatMul"
			outC = w.Shape[1]
			if a.TransposeB {
				outC = w.Shape[0]
			}
		default:
			continue
		}

		addName := o.soleConsumer(root.Name)
		if addName == "" {
			continue
		}
		add := o.node(addName)
		if add.Op != "BiasAdd" && add.Op != "Add" {
			continue
		}
		biasName, ok := o.biasOperand(add, root.Name, outC)
		if !ok {
			continue
		}

		// Optionally absorb a following activation.
		tail := add
		activation := ""
		actLabel := ""
		if actName := o.soleConsumer(add.Name); actName != "" {
			actNode := o.node(actName)
			// Any activation of the element-wise table fuses, under its
			// lowercase name.
			if op, ok := kernels.LookupElementwise(actNode.Op); ok && op.Activation != "" && len(actNode.Inputs) == 1 {
				tail = actNode
				activation = op.Activation
				actLabel = "+" + actNode.Op
			}
		}

		// Rewrite the tail in place so its name (and any output reference)
		// survives; the root (and the BiasAdd, when an activation was
		// absorbed) disappear.
		attrs := map[string]any{"activation": activation}
		switch fusedOp {
		case "_FusedMatMul":
			attrs["transpose_a"], attrs["transpose_b"] = a.TransposeA, a.TransposeB
		default:
			attrs["strides"], attrs["padding"] = a.Strides, a.Pad
		}
		pattern := "fuse:" + root.Op + "+" + add.Op + actLabel
		removedCount := 1
		tail.Op = fusedOp
		o.setInputs(tail, []string{root.Inputs[0], root.Inputs[1], biasName})
		tail.Attrs = attrs
		o.removed[root.Name] = true
		if tail != add {
			o.removed[add.Name] = true
			removedCount = 2
		}
		switch fusedOp {
		case "FusedConv2D":
			o.stats.FusedConv2D++
		case "FusedDepthwiseConv2dNative":
			o.stats.FusedDepthwiseConv2D++
		case "_FusedMatMul":
			o.stats.FusedMatMul++
		}
		o.record(pattern, tail.Name, removedCount)
	}
}

// prune drops every node not reachable from the outputs (dead BN
// statistics, absorbed pattern nodes, disconnected training remnants) and
// every weight without a surviving Const node.
func (o *optimizer) prune() {
	live := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if live[name] {
			return
		}
		live[name] = true
		if n := o.node(name); n != nil {
			for _, in := range n.Inputs {
				visit(in)
			}
		}
	}
	for _, out := range o.g.Outputs {
		visit(out)
	}
	for _, in := range o.g.Inputs {
		visit(in)
	}
	for i := range o.g.Nodes {
		n := &o.g.Nodes[i]
		if o.removed[n.Name] {
			continue
		}
		if !live[n.Name] {
			o.removed[n.Name] = true
			o.stats.PrunedNodes++
			o.record("prune:"+n.Op, n.Name, 1)
		}
	}
}

// compact materializes the removals accumulated by the passes. It is the
// last pass: the indexes do not follow it.
func (o *optimizer) compact() {
	kept := o.g.Nodes[:0]
	for _, n := range o.g.Nodes {
		if !o.removed[n.Name] {
			kept = append(kept, n)
		}
	}
	o.g.Nodes = kept
	for name := range o.g.Weights {
		if o.removed[name] {
			delete(o.g.Weights, name)
		}
	}
}
