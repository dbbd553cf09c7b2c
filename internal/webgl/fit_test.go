package webgl_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/layers"
	"repro/internal/webgl"
)

// TestProgramCacheStaysBoundedUnderTraining: every Adam step on webgl
// compiles new ApplyAdam programs — Beta1Power and Beta2Power change each
// step — so a Fit of enough steps passes the program cache's bound. The
// cache is cleared when full and never holds more than the bound.
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
	epochs := 2 * webgl.ProgramCacheCap / 4 // four variables: four new programs a step
	if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: epochs, BatchSize: 32,
		OnEpochEnd: func(int, map[string]float64) { sizes = append(sizes, b.CompiledPrograms()) }}); err != nil {
		t.Fatal(err)
	}
	t.Logf("compiled programs after each epoch: %v", sizes)
	cleared := false
	for i, n := range sizes {
		if n > webgl.ProgramCacheCap {
			t.Fatalf("epoch %d: %d compiled programs, bound %d", i, n, webgl.ProgramCacheCap)
		}
		cleared = cleared || i > 0 && n < sizes[i-1]
	}
	if !cleared {
		t.Errorf("%d steps never filled the cache (sizes %v): the test no longer reaches the bound", epochs, sizes)
	}
}
