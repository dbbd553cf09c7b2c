package graphmodel_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/graphmodel"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

func init() {
	core.Global().RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
}

// tinyGraph builds y = relu(x·W + b) by hand.
func tinyGraph() *savedmodel.GraphDef {
	return &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "W", Op: "Const"},
			{Name: "b", Op: "Const"},
			{Name: "mm", Op: "MatMul", Inputs: []string{"x", "W"}},
			{Name: "add", Op: "BiasAdd", Inputs: []string{"mm", "b"}},
			{Name: "y", Op: "Relu", Inputs: []string{"add"}},
		},
		Weights: map[string]*savedmodel.Weight{
			"W": {Name: "W", Shape: []int{2, 2}, DType: "float32", Values: []float32{1, -1, 2, 0}},
			"b": {Name: "b", Shape: []int{2}, DType: "float32", Values: []float32{0.5, -0.5}},
		},
		Inputs:  []string{"x"},
		Outputs: []string{"y"},
	}
}

func TestExecuteTinyGraph(t *testing.T) {
	m, err := graphmodel.New(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	out, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Dispose()
	// x·W = [1*1+1*2, 1*-1+1*0] = [3, -1]; +b = [3.5, -1.5]; relu = [3.5, 0].
	got := out.DataSync()
	if got[0] != 3.5 || got[1] != 0 {
		t.Fatalf("graph output %v", got)
	}
}

// TestPredictFreesOtherOutputs: Predict returns a multi-output graph's
// first output, and the handles of the others do not outlive the call.
func TestPredictFreesOtherOutputs(t *testing.T) {
	g := tinyGraph()
	g.Outputs = []string{"y", "mm", "x"}
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	before := core.Global().NumTensors()
	for i := 0; i < 5; i++ {
		out, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.DataSync(); got[0] != 3.5 || got[1] != 0 {
			t.Fatalf("first output %v, want [3.5 0]", got)
		}
		out.Dispose()
	}
	if after := core.Global().NumTensors(); after != before {
		t.Fatalf("Predict leaked the other outputs: %d -> %d tensors", before, after)
	}
	if x.Disposed() {
		t.Fatal("Predict disposed its input, which an output names")
	}
}

func TestExecuteDoesNotLeak(t *testing.T) {
	m, err := graphmodel.New(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	// Warmup.
	out, _ := m.Predict(x)
	out.Dispose()
	before := core.Global().NumTensors()
	for i := 0; i < 5; i++ {
		out, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		out.Dispose()
	}
	if after := core.Global().NumTensors(); after != before {
		t.Fatalf("execute leaked: %d -> %d", before, after)
	}
}

func TestMissingFeedErrors(t *testing.T) {
	m, err := graphmodel.New(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("missing feed must error")
	}
}

func TestCycleDetection(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "a", Op: "Relu", Inputs: []string{"b"}},
			{Name: "b", Op: "Relu", Inputs: []string{"a"}},
		},
		Weights: map[string]*savedmodel.Weight{},
		Outputs: []string{"a"},
	}
	if _, err := graphmodel.New(g); err == nil {
		t.Fatal("cyclic graph must error")
	}
}

func TestUnsupportedOpErrors(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "y", Op: "FFT", Inputs: []string{"x"}},
		},
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  []string{"x"},
		Outputs: []string{"y"},
	}
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	x := ops.Scalar(1)
	defer x.Dispose()
	if _, err := m.Predict(x); err == nil {
		t.Fatal("unsupported op must surface an error")
	}
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	bad := tinyGraph()
	bad.Nodes = append(bad.Nodes, savedmodel.NodeDef{Name: "z", Op: "Relu", Inputs: []string{"nonexistent"}})
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown input must fail validation")
	}
	dup := tinyGraph()
	dup.Nodes = append(dup.Nodes, savedmodel.NodeDef{Name: "x", Op: "Relu"})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate name must fail validation")
	}
	noWeight := tinyGraph()
	delete(noWeight.Weights, "W")
	if err := noWeight.Validate(); err == nil {
		t.Fatal("const without weight must fail validation")
	}
}

func TestTopologySerializationRoundTrip(t *testing.T) {
	g := tinyGraph()
	blob, err := g.MarshalTopology()
	if err != nil {
		t.Fatal(err)
	}
	back, err := savedmodel.UnmarshalTopology(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(g.Nodes) || back.Outputs[0] != "y" {
		t.Fatalf("round trip lost structure: %d nodes", len(back.Nodes))
	}
	if g.NumParams() != 6 {
		t.Fatalf("NumParams = %d, want 6", g.NumParams())
	}
}
