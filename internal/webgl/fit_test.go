package webgl_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/layers"
	"repro/internal/webgl"
)

// TestProgramCacheStaysBoundedUnderTraining: an Adam step on webgl makes
// the same calls as the step before — its bias corrections are an operand,
// not an attribute — so after the first step a Fit compiles no program.
// While ApplyAdam took them as attributes every step compiled new programs,
// and the cache was cleared about every 53 steps.
func TestProgramCacheStaysBoundedUnderTraining(t *testing.T) {
	e := core.Global()
	defer e.SetBackend("cpu")
	if err := e.SetBackend("webgl"); err != nil {
		t.Fatal(err)
	}
	b := e.Backend().(*webgl.Backend)
	layers.SetSeed(3)
	m := layers.NewSequential("")
	m.Add(layers.NewConv2D(layers.Conv2DConfig{Filters: 2, KernelSize: []int{3, 3}, Activation: "relu", InputShape: []int{16, 16, 1}}))
	m.Add(layers.NewFlatten())
	m.Add(layers.NewDense(layers.DenseConfig{Units: 10, Activation: "softmax"}))
	if err := m.Compile(layers.CompileConfig{Optimizer: "adam", Loss: "categoricalCrossentropy", LearningRate: 0.01}); err != nil {
		t.Fatal(err)
	}
	d := data.SyntheticDigits(32, 0.15, 1)
	defer d.Dispose()
	defer m.Dispose()
	var sizes []int
	if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 8, BatchSize: 32, // one step an epoch
		OnEpochEnd: func(int, map[string]float64) { sizes = append(sizes, b.CompiledPrograms()) }}); err != nil {
		t.Fatal(err)
	}
	t.Logf("compiled programs after each step: %v", sizes)
	for i, n := range sizes {
		if n != sizes[0] {
			t.Errorf("step %d: %d compiled programs, %d after the first step", i+1, n, sizes[0])
		}
	}
}
