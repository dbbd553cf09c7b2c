package savedmodel_test

import (
	"strings"
	"testing"

	"repro/internal/graphmodel"
	"repro/internal/savedmodel"
)

// ramp fills n ascending values.
func ramp(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i)
	}
	return out
}

// chainGraph builds placeholder(shape) → MatMul(W[wr, wc]) → Softmax.
func chainGraph(inShape []int, wr, wc int) *savedmodel.GraphDef {
	return &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder",
				Attrs: map[string]any{"dtype": "float32", "shape": inShape}},
			{Name: "W", Op: "Const"},
			{Name: "mm", Op: "MatMul", Inputs: []string{"x", "W"}},
			{Name: "probs", Op: "Softmax", Inputs: []string{"mm"}},
		},
		Weights: map[string]*savedmodel.Weight{
			"W": {Name: "W", Shape: []int{wr, wc}, DType: "float32", Values: ramp(wr * wc)},
		},
		Inputs:  []string{"x"},
		Outputs: []string{"probs"},
	}
}

func TestVerifyGraphAccepts(t *testing.T) {
	cases := map[string]*savedmodel.GraphDef{
		"static-shapes":   chainGraph([]int{2, 8}, 8, 4),
		"unknown-batch":   chainGraph([]int{-1, 8}, 8, 4),
		"shapeless-input": chainGraph(nil, 8, 4),
	}
	// A placeholder with no shape attr at all must also pass: unknown rank
	// matches anything.
	noShape := chainGraph(nil, 8, 4)
	noShape.Nodes[0].Attrs = nil
	cases["no-shape-attr"] = noShape

	for name, g := range cases {
		if err := savedmodel.VerifyGraph(g); err != nil {
			t.Errorf("%s: unexpected rejection: %v", name, err)
		}
	}
}

// wantIssue runs savedmodel.VerifyGraph and asserts one issue mentions node and text.
func wantIssue(t *testing.T, g *savedmodel.GraphDef, node, text string) {
	t.Helper()
	err := savedmodel.VerifyGraph(g)
	if err == nil {
		t.Fatalf("want rejection mentioning node %q / %q, got nil", node, text)
	}
	ve, ok := err.(*savedmodel.VerifyError)
	if !ok {
		t.Fatalf("want *savedmodel.VerifyError, got %T: %v", err, err)
	}
	for _, issue := range ve.Issues {
		if issue.Node == node && strings.Contains(issue.String(), text) {
			return
		}
	}
	t.Fatalf("no issue on node %q containing %q; got: %v", node, text, ve.Issues)
}

func TestVerifyGraphRankMismatch(t *testing.T) {
	// Rank-3 input into a rank-2-only MatMul.
	wantIssue(t, chainGraph([]int{-1, 4, 8}, 8, 4), "mm", "rank mismatch")
}

func TestVerifyGraphInnerDimMismatch(t *testing.T) {
	// Inner dims 8 vs 16.
	wantIssue(t, chainGraph([]int{-1, 8}, 16, 4), "mm", "inner dims")
}

func TestVerifyGraphDTypeMismatch(t *testing.T) {
	g := chainGraph([]int{-1, 8}, 8, 4)
	g.Weights["W"].DType = "int32"
	wantIssue(t, g, "mm", "dtype mismatch")
}

func TestVerifyGraphDanglingInput(t *testing.T) {
	g := chainGraph([]int{-1, 8}, 8, 4)
	g.Nodes[2].Inputs[1] = "missing"
	wantIssue(t, g, "mm", "undeclared node")
}

func TestVerifyGraphCycle(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "a", Op: "Relu", Inputs: []string{"b"}},
			{Name: "b", Op: "Relu", Inputs: []string{"a"}},
		},
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  []string{"a"},
		Outputs: []string{"b"},
	}
	err := savedmodel.VerifyGraph(g)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle issue, got %v", err)
	}
}

func TestVerifyGraphBroadcastConflict(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder",
				Attrs: map[string]any{"shape": []int{-1, 4}}},
			{Name: "b", Op: "Const"},
			{Name: "sum", Op: "Add", Inputs: []string{"x", "b"}},
		},
		Weights: map[string]*savedmodel.Weight{
			"b": {Name: "b", Shape: []int{3}, DType: "float32", Values: ramp(3)},
		},
		Inputs:  []string{"x"},
		Outputs: []string{"sum"},
	}
	wantIssue(t, g, "sum", "cannot broadcast")
}

func TestVerifyGraphConvShapes(t *testing.T) {
	conv := func(filterShape []int) *savedmodel.GraphDef {
		return &savedmodel.GraphDef{
			Nodes: []savedmodel.NodeDef{
				{Name: "x", Op: "Placeholder",
					Attrs: map[string]any{"shape": []int{-1, 8, 8, 3}}},
				{Name: "W", Op: "Const"},
				{Name: "conv", Op: "Conv2D", Inputs: []string{"x", "W"},
					Attrs: map[string]any{"strides": []int{1, 1}, "padding": "same"}},
			},
			Weights: map[string]*savedmodel.Weight{
				"W": {Name: "W", Shape: filterShape, DType: "float32",
					Values: ramp(shapeSizeFor(filterShape))},
			},
			Inputs:  []string{"x"},
			Outputs: []string{"conv"},
		}
	}
	if err := savedmodel.VerifyGraph(conv([]int{3, 3, 3, 8})); err != nil {
		t.Fatalf("consistent conv rejected: %v", err)
	}
	// Filter expects 4 input channels, image has 3.
	wantIssue(t, conv([]int{3, 3, 4, 8}), "conv", "in-channels")
}

func shapeSizeFor(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// TestVerifyGraphUnknownOpIsSilent pins the optimistic contract: ops the
// executor does not decode statically (a feed may short-circuit them) are
// unknown-shape producers, not errors — graphmodel.New must keep accepting
// graphs with exotic ops, failing only at Execute.
func TestVerifyGraphUnknownOpIsSilent(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "fft", Op: "FFT", Inputs: []string{"x"}},
			{Name: "out", Op: "Relu", Inputs: []string{"fft"}},
		},
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  []string{"x"},
		Outputs: []string{"out"},
	}
	if err := savedmodel.VerifyGraph(g); err != nil {
		t.Fatalf("unknown op must verify silently, got %v", err)
	}
}

// TestVerifyGraphMultipleIssues: every provable inconsistency is reported,
// not only the first.
func TestVerifyGraphMultipleIssues(t *testing.T) {
	g := chainGraph([]int{-1, 8}, 16, 4) // inner-dim mismatch
	g.Nodes[3].Inputs[0] = "missing"     // plus a dangling edge
	err := savedmodel.VerifyGraph(g)
	ve, ok := err.(*savedmodel.VerifyError)
	if !ok || len(ve.Issues) < 2 {
		t.Fatalf("want >= 2 issues, got %v", err)
	}
	if !strings.Contains(err.Error(), "more)") {
		t.Fatalf("aggregate error should count extra issues: %v", err)
	}
}

// TestHostileAttributesFailAtLoad: a node attribute that decodes to no
// kernel attribute — a wrong JSON type, a non-integral number, a window of
// the wrong length, a stride below 1, an unknown padding, a Pad padding
// that is not [top bottom left right], a bool spelled as a string, an axis
// that is not an integer — is a
// load-time error naming the node and the key, not a default or a
// truncation at Execute. The graphs go through the artifact JSON, so the
// attributes are what encoding/json decodes.
func TestHostileAttributesFailAtLoad(t *testing.T) {
	for _, c := range []struct {
		name, op, inputs, attrs, key string
	}{
		{"string strides", "Conv2D", `"img", "filter"`, `{"strides": "2", "padding": "same"}`, "strides"},
		{"non-integral strides", "Conv2D", `"img", "filter"`, `{"strides": [2.7, 2.7]}`, "strides"},
		{"string stride entry", "Conv2D", `"img", "filter"`, `{"strides": [2.0, "a"]}`, "strides"},
		{"three strides", "FusedConv2D", `"img", "filter"`, `{"strides": [1, 1, 1]}`, "strides"},
		{"one-entry ksize", "MaxPool", `"img"`, `{"ksize": [2]}`, "ksize"},
		{"zero stride", "DepthwiseConv2dNative", `"img", "filter"`, `{"strides": [0, 1]}`, "strides"},
		{"negative pool stride", "AvgPool", `"img"`, `{"ksize": [2, 2], "strides": [-1, 1]}`, "strides"},
		{"unknown padding", "Conv2D", `"img", "filter"`, `{"padding": "full"}`, "padding"},
		{"numeric padding", "Conv2D", `"img", "filter"`, `{"strides": [1, 1], "padding": 5}`, "padding"},
		{"two-entry Pad padding", "Pad", `"img"`, `{"padding": [1, 1]}`, "padding"},
		{"string transpose_b", "MatMul", `"vec", "weights"`, `{"transpose_b": "true"}`, "transpose_b"},
		{"string Slice begin", "Slice", `"vec"`, `{"begin": "0", "size": [-1, 4]}`, "begin"},
		{"non-integral Slice size", "Slice", `"vec"`, `{"begin": [0, 0], "size": [-1, 2.5]}`, "size"},
		{"non-integral Concat axis", "Concat", `"vec", "vec"`, `{"axis": 0.5}`, "axis"},
		{"string GatherV2 axis", "GatherV2", `"weights", "vec"`, `{"axis": "0"}`, "axis"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := savedmodel.UnmarshalTopology([]byte(`{"nodes": [
				{"name": "img", "op": "Placeholder", "attrs": {"shape": [-1, 8, 8, 3]}},
				{"name": "vec", "op": "Placeholder", "attrs": {"shape": [-1, 8]}},
				{"name": "filter", "op": "Const"},
				{"name": "weights", "op": "Const"},
				{"name": "hostile", "op": "` + c.op + `", "inputs": [` + c.inputs + `], "attrs": ` + c.attrs + `}],
				"inputs": ["img", "vec"], "outputs": ["hostile"]}`))
			if err != nil {
				t.Fatal(err)
			}
			g.Weights["filter"] = &savedmodel.Weight{Name: "filter", Shape: []int{3, 3, 3, 1}, DType: "float32", Values: ramp(27)}
			g.Weights["weights"] = &savedmodel.Weight{Name: "weights", Shape: []int{8, 4}, DType: "float32", Values: ramp(32)}
			m, err := graphmodel.New(g)
			if err == nil {
				m.Dispose()
				t.Fatalf("%s with attrs %s loads", c.op, c.attrs)
			}
			if msg := err.Error(); !strings.Contains(msg, `node "hostile"`) || !strings.Contains(msg, `attr "`+c.key+`"`) {
				t.Fatalf("load error %q does not name node \"hostile\" and attr %q", msg, c.key)
			}
		})
	}
}
