package layers_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/kernels"
	"repro/internal/layers"
	"repro/internal/native"
)

func init() {
	core.Global().RegisterBackend("node", func() (kernels.Backend, error) { return native.New(), nil })
}

// onNode switches the global engine to the node backend for one test.
func onNode(t *testing.T) {
	t.Helper()
	e := core.Global()
	if err := e.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.SetBackend("cpu"); err != nil {
			t.Error(err)
		}
	})
}

// benchConvnet is the convnet bench/ trains (bench/fixtures.go, the
// examples/mnist topology), compiled with adam and the accuracy metric.
func benchConvnet(t *testing.T) *layers.Sequential {
	t.Helper()
	layers.SetSeed(12)
	m := layers.NewSequential("")
	m.Add(layers.NewConv2D(layers.Conv2DConfig{
		Filters: 8, KernelSize: []int{3, 3}, Padding: "same", Activation: "relu",
		InputShape: []int{16, 16, 1},
	}))
	m.Add(layers.NewMaxPooling2D(layers.Pool2DConfig{}))
	m.Add(layers.NewConv2D(layers.Conv2DConfig{
		Filters: 16, KernelSize: []int{3, 3}, Padding: "same", Activation: "relu",
	}))
	m.Add(layers.NewMaxPooling2D(layers.Pool2DConfig{}))
	m.Add(layers.NewFlatten())
	m.Add(layers.NewDropout(0.25))
	m.Add(layers.NewDense(layers.DenseConfig{Units: 10, Activation: "softmax"}))
	if err := m.Compile(layers.CompileConfig{
		Optimizer: "adam", Loss: "categoricalCrossentropy",
		LearningRate: 0.01, Metrics: []string{"accuracy"},
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenLossBits is the six-epoch loss history of benchConvnet on node
// over SyntheticDigits(128, 0.15, 1), batch 32, shuffle seed 1, recorded
// at the commit before the node backend had backward kernels (every
// gradient then ran on the reference tier, metrics on a second forward
// pass). Native backward kernels, the broadcast fast path, tape pruning
// and the single forward pass must all leave every bit of it alone.
var goldenLossBits = [6]uint64{
	0x4001cf7458000000, 0x3ffc67ef40000000, 0x3fed3435c0000000,
	0x3fcac66184000000, 0x3fa41e46aa000000, 0x3f53c9b308000000,
}

// goldenWeightsHash is FNV-1a over the Float32bits of every weight after
// those six epochs, recorded at the same commit.
const goldenWeightsHash uint64 = 0x3c7d3671a8756230

func TestBenchConvnetLossHistoryBitIdenticalToReferenceTier(t *testing.T) {
	onNode(t)
	m := benchConvnet(t)
	defer m.Dispose()
	d := data.SyntheticDigits(128, 0.15, 1)
	defer d.Dispose()
	hist, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 6, BatchSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, loss := range hist.Logs["loss"] {
		if got := math.Float64bits(loss); got != goldenLossBits[i] {
			t.Errorf("epoch %d: loss %v (%#x), golden %v (%#x)", i, loss, got, math.Float64frombits(goldenLossBits[i]), goldenLossBits[i])
		}
	}
	h := fnv.New64a()
	for _, w := range m.GetWeights() {
		for _, v := range w.Values {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != goldenWeightsHash {
		t.Errorf("weights hash %#x, golden %#x", got, goldenWeightsHash)
	}
	if acc := hist.Logs["acc"]; len(acc) != 6 || !(acc[5] > acc[0]) {
		t.Errorf("training accuracy did not rise: %v", acc)
	}
}

// TestTrainStepAllocBudget: one warmed 32-example step of the bench
// convnet on node makes 3,005 allocations at GOMAXPROCS 2 (2,937 at 1,
// 3,049 at 8) — eager dispatch, the tape and the tidy scopes, a few dozen
// small objects per kernel; the budget is that reading plus 5%. It made
// 3,032 while every bias gradient's Transpose went through the reference
// kernel's host copies and every pool dispatch built its default window
// (ISSUE 24), and 3,340 while every eager kernel handed its one output
// back as a slice through a per-kernel wrapper (ISSUE 22), which the
// budget no longer admits; and it is there to catch a kernel
// that allocates per output element: with MaxPoolGrad on the reference
// tier's per-cell iterator closures the same step made 102,419.
func TestTrainStepAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	onNode(t)
	m := benchConvnet(t)
	defer m.Dispose()
	d := data.SyntheticDigits(32, 0.15, 1)
	defer d.Dispose()
	step := func() {
		if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 1, BatchSize: 32}); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step()
	const budget = 3155
	allocs := testing.AllocsPerRun(10, step)
	t.Logf("one warmed training step: %.0f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("%v allocs per training step, budget %d", allocs, budget)
	}
}

// TestTrainStepRunsOneForwardPass: a step of the bench convnet with a
// metric set dispatches each convolution once (the metric reads the
// training pass's predictions; there is no second, inference-mode pass)
// and one Conv2DBackpropInput (the second layer's; the gradient w.r.t. the
// data batch is not computed).
func TestTrainStepRunsOneForwardPass(t *testing.T) {
	onNode(t)
	m := benchConvnet(t)
	defer m.Dispose()
	d := data.SyntheticDigits(32, 0.15, 1)
	defer d.Dispose()
	info := core.Global().Profile(func() {
		if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 1, BatchSize: 32}); err != nil {
			t.Fatal(err)
		}
	})
	counts := map[string]int{}
	for _, k := range info.Kernels {
		counts[k.Name]++
	}
	for kernel, want := range map[string]int{"Conv2D": 2, "MaxPool": 2, "Conv2DBackpropFilter": 2, "Conv2DBackpropInput": 1, "MaxPoolGrad": 2} {
		if counts[kernel] != want {
			t.Errorf("one step dispatched %d %s, want %d", counts[kernel], kernel, want)
		}
	}
}
