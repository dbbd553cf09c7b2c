package graphmodel_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphmodel"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

// TestConcurrentExecute hammers one shared Model from many goroutines —
// the serving worker pool's core assumption. Run with -race: executions
// must serialize on the engine's execution lock without corrupting the
// tidy scope stack or each other's results.
func TestConcurrentExecute(t *testing.T) {
	m, err := graphmodel.New(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 20

	e := core.Global()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := float32(g + 1)
				var x *tensor.Tensor
				// Feed creation must hold the execution lock: another
				// goroutine may be mid-Execute inside a tidy scope that
				// would otherwise adopt (and dispose) this tensor.
				e.RunExclusive(func() {
					x = ops.FromValues([]float32{v, v}, 1, 2)
				})
				out, err := m.Execute(map[string]*tensor.Tensor{"x": x})
				if err != nil {
					errs <- err
					return
				}
				var got []float32
				e.RunExclusive(func() {
					got = out["y"].DataSync()
					out["y"].Dispose()
					x.Dispose()
				})
				// x·W = [3v, -v]; +b = [3v+0.5, -v-0.5]; relu clamps col 1.
				want0 := 3*v + 0.5
				if got[0] != want0 || got[1] != 0 {
					errs <- fmt.Errorf("goroutine %d: got %v, want [%v 0]", g, got, want0)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPredictEmptySignature: a graph with no declared serving outputs does
// not load (GraphDef.Validate), and Predict on one with no declared serving
// input returns a descriptive error rather than panic with an index out of
// range.
func TestPredictEmptySignature(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "y", Op: "Relu", Inputs: []string{"x"}},
		},
	}
	if _, err := graphmodel.New(g); err == nil || !strings.Contains(err.Error(), "no output") {
		t.Fatalf("a graph with no outputs: New error %v, want one naming the missing output", err)
	}
	g.Outputs = []string{"y"}
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	x := ops.FromValues([]float32{1}, 1, 1)
	defer x.Dispose()
	if _, err := m.Predict(x); err == nil {
		t.Fatal("Predict on a model with no serving signature: want error, got nil")
	}
}
