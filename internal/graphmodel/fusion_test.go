package graphmodel_test

import (
	"errors"
	"testing"

	"repro/internal/exec"
	"repro/internal/graphmodel"
	"repro/internal/ops"
	"repro/internal/savedmodel"
)

// convGraph builds x → Conv2D(W) → <bias op> → <activation> by hand, the
// canonical fusion candidate. biasOp may be "BiasAdd", "Add" (with the
// operands swapped to exercise commutative matching), or "FusedBatchNorm";
// act may be "" for no activation node.
func convGraph(biasOp, act string, swapAdd bool) *savedmodel.GraphDef {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "W", Op: "Const"},
			{Name: "conv", Op: "Conv2D", Inputs: []string{"x", "W"},
				Attrs: map[string]any{"strides": []int{1, 1}, "padding": "same"}},
		},
		Weights: map[string]*savedmodel.Weight{
			"W": {Name: "W", Shape: []int{3, 3, 2, 4}, DType: "float32", Values: ramp(3 * 3 * 2 * 4)},
		},
		Inputs: []string{"x"},
	}
	tail := "conv"
	switch biasOp {
	case "BiasAdd", "Add":
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "b", Op: "Const"})
		g.Weights["b"] = &savedmodel.Weight{Name: "b", Shape: []int{4}, DType: "float32", Values: ramp(4)}
		ins := []string{tail, "b"}
		if swapAdd {
			ins = []string{"b", tail}
		}
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "bias", Op: biasOp, Inputs: ins})
		tail = "bias"
	case "FusedBatchNorm":
		for _, s := range []string{"mean", "variance", "beta", "gamma"} {
			g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: s, Op: "Const"})
			vals := []float32{0.1, 0.2, 0.3, 0.4}
			if s == "variance" {
				vals = []float32{1, 1.5, 2, 0.5}
			}
			g.Weights[s] = &savedmodel.Weight{Name: s, Shape: []int{4}, DType: "float32", Values: vals}
		}
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "bn", Op: "FusedBatchNorm",
			Inputs: []string{tail, "mean", "variance", "beta", "gamma"}})
		tail = "bn"
	}
	if act != "" {
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "act", Op: act, Inputs: []string{tail}})
		tail = "act"
	}
	g.Outputs = []string{tail}
	return g
}

func ramp(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i%7)/7 - 0.5
	}
	return out
}

// countOps tallies node ops in a graph.
func countOps(g *savedmodel.GraphDef) map[string]int {
	c := map[string]int{}
	for _, n := range g.Nodes {
		c[n.Op]++
	}
	return c
}

// TestFusionPatternsFire is the table-driven "pattern fires" suite: each
// row loads a graph and asserts which fused node the optimizer produced
// and which pattern label it recorded.
func TestFusionPatternsFire(t *testing.T) {
	cases := []struct {
		name    string
		graph   *savedmodel.GraphDef
		wantOp  string
		pattern string
	}{
		{"conv+biasadd+relu6", convGraph("BiasAdd", "Relu6", false),
			"FusedConv2D", "fuse:Conv2D+BiasAdd+Relu6"},
		{"conv+biasadd-no-activation", convGraph("BiasAdd", "", false),
			"FusedConv2D", "fuse:Conv2D+BiasAdd"},
		{"conv+swapped-add+relu", convGraph("Add", "Relu", true),
			"FusedConv2D", "fuse:Conv2D+Add+Relu"},
		{"conv+bn+relu6-folds-then-fuses", convGraph("FusedBatchNorm", "Relu6", false),
			"FusedConv2D", "fuse:Conv2D+BiasAdd+Relu6"},
		{"matmul+biasadd+relu", tinyGraph(),
			"_FusedMatMul", "fuse:MatMul+BiasAdd+Relu"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := graphmodel.New(tc.graph)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Dispose()
			stats := m.OptimizeStats()
			if !stats.Enabled {
				t.Fatal("optimizer should be on by default")
			}
			opt := countOps(m.OptimizedGraph())
			if opt[tc.wantOp] != 1 {
				t.Fatalf("want one %s node, got ops %v", tc.wantOp, opt)
			}
			if stats.Patterns[tc.pattern] != 1 {
				t.Fatalf("want pattern %q fired once, got %v", tc.pattern, stats.Patterns)
			}
			// The absorbed ops must be gone from the execution graph.
			for _, gone := range []string{"Conv2D", "MatMul", "BiasAdd", "Add", "FusedBatchNorm", "Relu", "Relu6"} {
				if opt[gone] != 0 {
					t.Fatalf("op %s should have been absorbed, got ops %v", gone, opt)
				}
			}
			if stats.NodesAfter >= stats.NodesBefore {
				t.Fatalf("optimizer should shrink the graph: %d -> %d", stats.NodesBefore, stats.NodesAfter)
			}
		})
	}
}

// TestFusionRefusals is the refusal table: graphs where the pattern is
// structurally present but fusing would change observable behavior.
func TestFusionRefusals(t *testing.T) {
	// A second consumer of the conv output: fusing would recompute or
	// misattribute the pre-bias activations.
	second := convGraph("BiasAdd", "Relu", false)
	second.Nodes = append(second.Nodes, savedmodel.NodeDef{Name: "spy", Op: "Relu", Inputs: []string{"conv"}})
	second.Outputs = append(second.Outputs, "spy")

	// The intermediate itself is a graph output.
	interOut := convGraph("BiasAdd", "Relu", false)
	interOut.Outputs = append(interOut.Outputs, "conv")

	// Bias is not a constant (a fed Placeholder).
	fedBias := convGraph("BiasAdd", "Relu", false)
	for i := range fedBias.Nodes {
		if fedBias.Nodes[i].Name == "b" {
			fedBias.Nodes[i].Op = "Placeholder"
		}
	}
	delete(fedBias.Weights, "b")
	fedBias.Inputs = append(fedBias.Inputs, "b")

	// A bias that broadcasts ([1] against 4 channels: the graph runs) but
	// is not the fused kernel's per-channel bias (rank 1, outC).
	badBias := convGraph("BiasAdd", "Relu", false)
	badBias.Weights["b"] = &savedmodel.Weight{Name: "b", Shape: []int{1}, DType: "float32", Values: []float32{1}}

	cases := []struct {
		name  string
		graph *savedmodel.GraphDef
	}{
		{"second-consumer", second},
		{"intermediate-is-output", interOut},
		{"bias-not-const", fedBias},
		{"bias-wrong-shape", badBias},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := graphmodel.New(tc.graph)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Dispose()
			opt := countOps(m.OptimizedGraph())
			if opt["FusedConv2D"] != 0 {
				t.Fatalf("fusion must refuse, got ops %v", opt)
			}
			if opt["Conv2D"] != 1 {
				t.Fatalf("Conv2D should survive, got ops %v", opt)
			}
		})
	}

	// A bias that does not broadcast ([2] against 4 channels) is no fusion
	// question: the graph cannot run, and once the input's shape is known
	// the load rejects it at the node.
	noRun := convGraph("BiasAdd", "Relu", false)
	noRun.Weights["b"] = &savedmodel.Weight{Name: "b", Shape: []int{2}, DType: "float32", Values: []float32{1, 2}}
	noRun.Nodes[0].Attrs = map[string]any{"shape": []int{-1, 5, 5, 2}}
	var ve *savedmodel.VerifyError
	if _, err := graphmodel.New(noRun); !errors.As(err, &ve) || ve.Issues[0].Node != "bias" {
		t.Fatalf("a [2] bias on 4 channels: New returned %v, want a *savedmodel.VerifyError at node \"bias\"", err)
	}
}

// TestUnfusableActivationStopsChain: an activation outside the element-wise
// table — Softmax, the one that is not element-wise — stops the chain at
// BiasAdd: conv+bias still fuse, the activation stays.
func TestUnfusableActivationStopsChain(t *testing.T) {
	m, err := graphmodel.New(convGraph("BiasAdd", "Softmax", false))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	opt := countOps(m.OptimizedGraph())
	if opt["FusedConv2D"] != 1 || opt["Softmax"] != 1 {
		t.Fatalf("want FusedConv2D + surviving Softmax, got %v", opt)
	}
	if m.OptimizeStats().Patterns["fuse:Conv2D+BiasAdd"] != 1 {
		t.Fatalf("want bias-only pattern, got %v", m.OptimizeStats().Patterns)
	}
}

// TestIdentityElision: Identity nodes are spliced out unless they are
// graph outputs.
func TestIdentityElision(t *testing.T) {
	g := tinyGraph()
	// Interpose an Identity between add and y's activation input.
	for i := range g.Nodes {
		if g.Nodes[i].Name == "y" {
			g.Nodes[i].Inputs = []string{"id"}
		}
	}
	g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "id", Op: "Identity", Inputs: []string{"add"}})
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	if got := m.OptimizeStats().ElidedIdentities; got != 1 {
		t.Fatalf("ElidedIdentities = %d, want 1", got)
	}
	// With the Identity gone the whole chain fuses again.
	if countOps(m.OptimizedGraph())["_FusedMatMul"] != 1 {
		t.Fatalf("chain should fuse through the elided Identity, got %v", countOps(m.OptimizedGraph()))
	}
	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	out, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Dispose()
	if got := out.DataSync(); got[0] != 3.5 || got[1] != 0 {
		t.Fatalf("output %v, want [3.5 0]", got)
	}
}

// TestOptimizeOffLeavesGraphAlone: WithOptimize(false) executes the graph
// exactly as converted and reports zero stats.
func TestOptimizeOffLeavesGraphAlone(t *testing.T) {
	g := tinyGraph()
	m, err := graphmodel.New(g, graphmodel.WithExecOptions(exec.WithOptimize(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	if m.OptimizeStats().Enabled {
		t.Fatal("stats must report optimizer off")
	}
	if m.OptimizedGraph() != g {
		t.Fatal("execution graph must be the original when optimization is off")
	}
	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	out, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Dispose()
	if got := out.DataSync(); got[0] != 3.5 || got[1] != 0 {
		t.Fatalf("output %v, want [3.5 0]", got)
	}
}

// TestOriginalGraphNotMutated: the optimizer works on a clone; Graph()
// returns the untouched original.
func TestOriginalGraphNotMutated(t *testing.T) {
	g := tinyGraph()
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	if len(g.Nodes) != 6 {
		t.Fatalf("caller graph mutated: %d nodes", len(g.Nodes))
	}
	if m.Graph() != g {
		t.Fatal("Graph() must return the original")
	}
	if cnt := countOps(m.Graph())["MatMul"]; cnt != 1 {
		t.Fatalf("original MatMul node lost: %v", countOps(m.Graph()))
	}
}
