package graphmodel_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/graphmodel"
	"repro/internal/layers"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

// TestVerifierDescribesThePlanThatRuns: the verifier's shape pass is the
// plan's own. On every model `tfjs-vet -plan zoo` verifies and on a Layers
// export, optimized and not, each node's shape inferred with the
// placeholder's leading dim set to 1 and to 3 equals the shape that node's
// step produces in an Execute at that batch size.
func TestVerifierDescribesThePlanThatRuns(t *testing.T) {
	onBackend(t, "node")
	graphs := map[string]*savedmodel.GraphDef{
		// cmd/tfjs-vet's planZoo.
		"mobilenet-0.25-96": mobileNetGraph(t, 0.25, 96),
		"mobilenet-0.5-64":  mobileNetGraph(t, 0.5, 64),
		"mobilenet-0.25-64": mobileNetGraph(t, 0.25, 64),
		"layers-convnet":    layersConvnetGraph(t),
	}
	for name, g := range graphs {
		for _, optimize := range []bool{true, false} {
			m, err := graphmodel.New(g, graphmodel.WithExecOptions(exec.WithOptimize(optimize)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, batch := range []int{1, 3} {
				label := fmt.Sprintf("%s optimize=%v batch %d", name, optimize, batch)
				want, err := savedmodel.InferShapes(m.OptimizedGraph(), batch)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				in := m.OptimizedGraph().Inputs[0]
				shape := slices.Clone(want[in])
				x := ops.FromValues(make([]float32, tensor.ShapeSize(shape)), shape...)
				outs, err := m.Execute(map[string]*tensor.Tensor{in: x})
				x.Dispose()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, out := range outs {
					out.Dispose()
				}
				got := graphmodel.StepShapes(m)
				for node, shape := range got {
					if node == in {
						continue
					}
					if w, ok := want[node]; !ok || !slices.Equal(w, shape) {
						t.Errorf("%s: node %q: the verifier infers %v (known %v), its step produced %v", label, node, w, ok, shape)
					}
				}
				if len(got) < 2 {
					t.Fatalf("%s: no step besides the placeholder's", label)
				}
			}
			m.Dispose()
		}
	}
}

// layersConvnetGraph is the converter tests' convnet (Conv2D with relu,
// MaxPooling2D, Flatten, Dense with softmax), exported with its training
// ops attached.
func layersConvnetGraph(t *testing.T) *savedmodel.GraphDef {
	t.Helper()
	layers.SetSeed(99)
	m := layers.NewSequential("convert_test")
	m.Add(layers.NewConv2D(layers.Conv2DConfig{
		Filters: 4, KernelSize: []int{3, 3}, Padding: "same", Activation: "relu",
		InputShape: []int{8, 8, 1},
	}))
	m.Add(layers.NewMaxPooling2D(layers.Pool2DConfig{}))
	m.Add(layers.NewFlatten())
	m.Add(layers.NewDense(layers.DenseConfig{Units: 3, Activation: "softmax"}))
	g, err := savedmodel.FromSequential(m, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
