package layers_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/layers"
	"repro/internal/native"
	"repro/internal/train"
	"repro/internal/webgl"
	"repro/internal/webgpu"
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
// convnet on node makes 1,910 allocations at GOMAXPROCS 2 (1,854 at 1,
// 1,952 at 8) — eager dispatch, the tape and the tidy scopes, a few dozen
// small objects per kernel; the budget is that reading plus 5%. It made
// 3,005 while Adam ran as fourteen eager ops and five scalar uploads per
// variable and every bias gradient was a Transpose and a Sum, 3,032 while
// that Transpose went through the reference kernel's host copies and every
// pool dispatch built its default window, and 3,340 while every eager
// kernel handed its one output back as a slice through a per-kernel
// wrapper, which the budget no longer admits; and it is there to catch a
// kernel that allocates per output element: with MaxPoolGrad on the
// reference tier's per-cell iterator closures the same step made 102,419.
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
	const budget = 2006
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
// data batch is not computed). Its tail is what it computes: each of the
// three bias gradients one BiasAddGrad (no Transpose), and Adam two fused
// kernels per variable (no Square, no Sqrt: the eager chain's are gone).
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
	for kernel, want := range map[string]int{
		"Conv2D": 2, "MaxPool": 2, "Conv2DBackpropFilter": 2, "Conv2DBackpropInput": 1, "MaxPoolGrad": 2,
		"BiasAddGrad": 3, "Transpose": 0, "Square": 0, "Sqrt": 0, "AdamMoments": 6, "ApplyAdam": 6,
	} {
		if counts[kernel] != want {
			t.Errorf("one step dispatched %d %s, want %d", counts[kernel], kernel, want)
		}
	}
}

// TestTrainEpochDispatchesInAFixedOrder: two fresh bench convnets, one
// epoch each (four steps), dispatch the same kernels on the same shapes in
// the same order — the optimizer visits the variables in the order the
// model lists them, not in a map's — and the epoch is at most 300
// dispatches: 289 (280 once Adam's slots exist), where it was 595 while
// Adam was fourteen eager ops per variable and each bias gradient a
// Transpose and a Sum.
func TestTrainEpochDispatchesInAFixedOrder(t *testing.T) {
	onNode(t)
	d := data.SyntheticDigits(128, 0.15, 1)
	defer d.Dispose()
	epoch := func() []core.KernelRecord {
		m := benchConvnet(t)
		defer m.Dispose()
		return core.Global().Profile(func() {
			if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 1, BatchSize: 32}); err != nil {
				t.Fatal(err)
			}
		}).Kernels
	}
	first, second := epoch(), epoch()
	t.Logf("one epoch of a fresh model: %d dispatches", len(first))
	if len(first) > 300 {
		t.Errorf("one epoch dispatched %d kernels, want at most 300", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("two fresh models dispatched %d and %d kernels in one epoch", len(first), len(second))
	}
	for i := range first {
		if first[i].Name != second[i].Name || fmt.Sprint(first[i].InputShapes) != fmt.Sprint(second[i].InputShapes) {
			t.Fatalf("dispatch %d: %s%v, then %s%v on a fresh model", i, first[i].Name, first[i].InputShapes, second[i].Name, second[i].InputShapes)
		}
	}
}

// TestCompileDisposesTheOptimizerItReplaces: compiling again disposes the
// optimizer the model built from a name, slots and all, so fit → compile →
// fit → Dispose leaves no tensor behind (the bench convnet's Adam left its
// six variables' moment slots, twelve tensors, before). An optimizer the
// caller passed in stays the caller's: recompiling does not dispose it.
func TestCompileDisposesTheOptimizerItReplaces(t *testing.T) {
	onNode(t)
	e := core.Global()
	d := data.SyntheticDigits(32, 0.15, 1)
	defer d.Dispose()
	fit := func(m *layers.Sequential) {
		t.Helper()
		if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 1, BatchSize: 32}); err != nil {
			t.Fatal(err)
		}
	}
	compile := func(m *layers.Sequential, opt any) {
		t.Helper()
		if err := m.Compile(layers.CompileConfig{Optimizer: opt, Loss: "categoricalCrossentropy", LearningRate: 0.01}); err != nil {
			t.Fatal(err)
		}
	}

	before := e.NumTensors()
	m := benchConvnet(t)
	fit(m)
	compile(m, "adam")
	fit(m)
	m.Dispose()
	if leaked := e.NumTensors() - before; leaked != 0 {
		t.Errorf("fit, compile, fit, Dispose left %d tensors live", leaked)
	}

	own := train.NewAdam(0.01, 0, 0, 0)
	m = benchConvnet(t)
	compile(m, own)
	fit(m)
	live := e.NumTensors()
	compile(m, "sgd")
	if e.NumTensors() != live {
		t.Errorf("recompiling disposed the caller's optimizer: %d tensors live, %d before", e.NumTensors(), live)
	}
	m.Dispose()
	own.Dispose()
	if leaked := e.NumTensors() - before; leaked != 0 {
		t.Errorf("%d tensors live after the model and the caller's optimizer are disposed", leaked)
	}
}

// TestWebGLFitStepReadsBackOnlyTheLossAndTheMetric: on webgl, and on
// webgpu through it, every kernel of a bench-convnet training step — the
// bias gradients' BiasAddGrad and Adam's two kernels included — runs as a
// device program, so a step reads back from the device exactly what the
// caller asks for: the loss and the accuracy metric (Section 4.1.1). A
// kernel without a program would run on the host and read its operands
// back mid-backprop.
func TestWebGLFitStepReadsBackOnlyTheLossAndTheMetric(t *testing.T) {
	e := core.Global()
	e.RegisterBackend("webgl", func() (kernels.Backend, error) { return webgl.New(webgl.DefaultConfig()), nil })
	e.RegisterBackend("webgpu", func() (kernels.Backend, error) { return webgpu.New(webgl.DefaultConfig()), nil })
	defer e.SetBackend("cpu")
	for _, backend := range []string{"webgl", "webgpu"} {
		if err := e.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		device := e.Backend().(interface{ Device() *glsim.Device }).Device()
		m := benchConvnet(t)
		d := data.SyntheticDigits(32, 0.15, 1)
		for step := 0; step < 2; step++ { // the first step also creates Adam's slots
			before := device.Stats().Readbacks
			if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 1, BatchSize: 32}); err != nil {
				t.Fatal(err)
			}
			if got := device.Stats().Readbacks - before; got != 2 {
				t.Errorf("%s step %d read %d textures back from the device, want 2 (the loss and the metric)", backend, step, got)
			}
		}
		m.Dispose()
		d.Dispose()
	}
}
