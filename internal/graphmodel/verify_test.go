package graphmodel_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/graphmodel"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/telemetry"
)

// badMatMul is structurally valid (passes Validate) but statically
// inconsistent: the [1 8] placeholder feeds a MatMul whose weight is
// [16 4] — inner dims 8 vs 16.
func badMatMul() *savedmodel.GraphDef {
	w := make([]float32, 16*4)
	return &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder",
				Attrs: map[string]any{"dtype": "float32", "shape": []int{-1, 8}}},
			{Name: "W", Op: "Const"},
			{Name: "mm", Op: "MatMul", Inputs: []string{"x", "W"}},
		},
		Weights: map[string]*savedmodel.Weight{
			"W": {Name: "W", Shape: []int{16, 4}, DType: "float32", Values: w},
		},
		Inputs:  []string{"x"},
		Outputs: []string{"mm"},
	}
}

// TestNewRejectsInconsistentGraph: the verifier runs at every load and
// turns a would-be first-predict failure into a load-time error naming the
// node.
func TestNewRejectsInconsistentGraph(t *testing.T) {
	_, err := graphmodel.New(badMatMul())
	if err == nil {
		t.Fatal("New must reject a shape-inconsistent graph by default")
	}
	for _, want := range []string{`node "mm"`, "inner dims"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic should contain %q: %v", want, err)
		}
	}
}

// TestLoadAndExecuteRejectWithOneCheck: the verifier has no shape rule of
// its own. The inconsistency the load rejects is the one the kernel rejects
// at Execute: a consistent MatMul fed the wrong width fails its first
// predict with BatchMatMul's own words, the words badMatMul's load error
// carries.
func TestLoadAndExecuteRejectWithOneCheck(t *testing.T) {
	_, loadErr := graphmodel.New(badMatMul())
	var ve *savedmodel.VerifyError
	if !errors.As(loadErr, &ve) {
		t.Fatalf("New(badMatMul) = %v, want a *savedmodel.VerifyError", loadErr)
	}
	g := badMatMul()
	g.Weights["W"].Shape = []int{8, 4}
	g.Weights["W"].Values = make([]float32, 8*4)
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	x := ops.FromValues(make([]float32, 16), 1, 16)
	defer x.Dispose()
	_, execErr := m.Predict(x)
	var opErr *core.OpError
	if !errors.As(execErr, &opErr) || opErr.Kernel != "BatchMatMul" {
		t.Fatalf("Predict on a [1 16] feed: %v, want an OpError from BatchMatMul", execErr)
	}
	for _, err := range []error{loadErr, execErr} {
		if !strings.Contains(err.Error(), "kernel BatchMatMul: inner dims mismatch") {
			t.Errorf("%v does not carry BatchMatMul's own check", err)
		}
	}
}

// TestVerifyTelemetry: each load emits one KindVerify event with the
// outcome as Name and the checked node count.
func TestVerifyTelemetry(t *testing.T) {
	var events []telemetry.Event
	remove := core.Global().Telemetry().Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindVerify {
			events = append(events, ev)
		}
	}))
	defer remove()

	g := badMatMul()
	if _, err := graphmodel.New(g); err == nil {
		t.Fatal("want rejection")
	}
	if len(events) != 1 || events[0].Name != "reject" {
		t.Fatalf("want one reject event, got %+v", events)
	}
	if events[0].Count != len(g.Nodes) {
		t.Fatalf("event Count = %d, want node count %d", events[0].Count, len(g.Nodes))
	}

	events = nil
	g.Weights["W"].Shape = []int{8, 4}
	g.Weights["W"].Values = make([]float32, 8*4)
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	// A successful load emits the graph verifier's "ok" plus the plan
	// verifier's "plan-ok" (see planexport.go).
	if len(events) != 2 || events[0].Name != "ok" || events[1].Name != "plan-ok" {
		t.Fatalf(`want ["ok", "plan-ok"] events, got %+v`, events)
	}
}

// TestConvertRefusesInconsistentGraph: the converter runs the same
// verifier before writing artifacts, so a malformed model is rejected at
// conversion time and nothing reaches the store. There is no bypass.
func TestConvertRefusesInconsistentGraph(t *testing.T) {
	store := converter.NewMemStore()
	_, err := converter.Convert(badMatMul(), store, converter.Options{})
	if err == nil || !strings.Contains(err.Error(), "refusing to write artifacts") {
		t.Fatalf("want conversion refusal, got %v", err)
	}
	if paths, _ := store.List(); len(paths) != 0 {
		t.Fatalf("refused conversion must write nothing, wrote %v", paths)
	}

	// The refusal is the load's: a *savedmodel.VerifyError naming the node.
	var ve *savedmodel.VerifyError
	if !errors.As(err, &ve) || ve.Issues[0].Node != "mm" {
		t.Fatalf("conversion refusal %v is not a *savedmodel.VerifyError at node \"mm\"", err)
	}
}

// TestNewRejectsWindowsThatDoNotStep: a pool or a convolution whose strides
// are zero or negative, or whose valid window is larger than its input, is
// a load-time *savedmodel.VerifyError, with the batch dim unknown (probed
// as 1) and known. A zero stride once divided by zero inside a verifier
// that had shape rules of its own, and serving loads models in a
// goroutine.
func TestNewRejectsWindowsThatDoNotStep(t *testing.T) {
	for _, c := range []struct {
		label, op string
		attrs     map[string]any
	}{
		{"zeroStrides", "MaxPool", map[string]any{"ksize": []int{2, 2}, "strides": []int{0, 0}, "padding": "valid"}},
		{"negativeStride", "AvgPool", map[string]any{"ksize": []int{2, 2}, "strides": []int{-1, 1}, "padding": "same"}},
		{"validWindowTooLarge", "MaxPool", map[string]any{"ksize": []int{4, 4}, "strides": []int{3, 3}, "padding": "valid"}},
		{"zeroStrides", "Conv2D", map[string]any{"strides": []int{0, 0}, "padding": "same"}},
		{"negativeStride", "Conv2D", map[string]any{"strides": []int{1, -1}, "padding": "same"}},
		{"validWindowTooLarge", "Conv2D", map[string]any{"strides": []int{3, 3}, "padding": "valid"}},
	} {
		for _, batch := range []int{-1, 1} {
			g := &savedmodel.GraphDef{
				Nodes: []savedmodel.NodeDef{
					{Name: "x", Op: "Placeholder", Attrs: map[string]any{"dtype": "float32", "shape": []int{batch, 2, 2, 1}}},
					{Name: "y", Op: c.op, Inputs: []string{"x"}, Attrs: c.attrs},
				},
				Inputs: []string{"x"}, Outputs: []string{"y"},
			}
			if c.op == "Conv2D" {
				g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "W", Op: "Const"})
				g.Nodes[1].Inputs = append(g.Nodes[1].Inputs, "W")
				g.Weights = map[string]*savedmodel.Weight{"W": {Name: "W", Shape: []int{4, 4, 1, 1}, DType: "float32", Values: make([]float32, 16)}}
			}
			var ve *savedmodel.VerifyError
			if _, err := graphmodel.New(g); !errors.As(err, &ve) {
				t.Errorf("%s %s, batch %d: New returned %v, want a *savedmodel.VerifyError", c.op, c.label, batch, err)
			}
		}
	}
}
