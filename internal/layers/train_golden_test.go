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

// TestTrainStepAllocBudget: one warmed 32-example step of the bench convnet
// on node makes 426 allocations at GOMAXPROCS 2 (409 at 1, 426 at 4 and at
// 8) — eager dispatch, the tape and the tidy scopes, a couple of small
// objects per kernel; the budget is 5% over that. It made 428 (411 at 1)
// while its two GatherV2 calls, the batch's images and labels, were
// resolved and built their body's closure on every dispatch, outside the
// range table's memo; 496 (480 at 1)
// while every kernel resolved its call, and built its body's closure, on
// every dispatch, and ApplyAdam's bias corrections were attributes that
// made new calls every step; 526 (509 at 1)
// while each bias gradient was a BiasAddGrad between two reshapes of its
// operand, 570 (510 at 1, 590 at 4, 623 at 8) while a kernel split across
// workers allocated its chunk counter, its WaitGroup, its body's closure
// and a closure per helper, where it now allocates one job whatever the
// worker count; 716 while every eager op built its kernel attributes as a
// map, 1,444 while every dispatch built a tape node whether or not a tape
// kept it, its operand slice and an escaping output descriptor, every
// tensor a strides slice, every data container a heap record and every
// Dropout step a fresh mask; 1,874 before reductions took the op's own
// shape and their reshapes and transposes went. It made 1,896 while ArgMax,
// Fill, GatherV2 and Tile had no node kernel and went through a host
// fallback, since deleted, as did LogSoftmax's broadcast Sub; 1,910 while
// six of the step's element-wise kernels did too; 3,005 while Adam ran as
// fourteen eager ops and five scalar uploads per variable and every bias gradient
// was a Transpose and a Sum, 3,032 while that Transpose went through the
// reference kernel's host copies and every pool dispatch built its default
// window, and 3,340 while every eager kernel handed its one output back as
// a slice through a per-kernel wrapper, which the budget no longer admits;
// and it is there to catch a kernel that allocates per output element: with
// MaxPoolGrad on the reference tier's per-cell iterator closures the same
// step made 102,419.
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
	const budget = 450
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
// three bias gradients one Sum over the leading axes (no Transpose; with
// the loss's and its gradient's, five Sums), and Adam two fused kernels per
// variable (no Square, no Sqrt: the eager chain's are gone).
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
		"BiasAddGrad": 0, "Sum": 5, "Transpose": 0, "Square": 0, "Sqrt": 0, "AdamMoments": 6, "ApplyAdam": 6,
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

// epochKernels runs one epoch of build's model over examples synthetic
// digits on b, registered with the global engine as name, and returns how
// many times each kernel was dispatched. Each ran as b's own kernel: a
// kernel b lacked would have failed the epoch (kernels.Dispatch has no
// other way to run one).
func epochKernels(t *testing.T, name string, b kernels.Backend, build func(*testing.T) *layers.Sequential, examples int) map[string]int {
	t.Helper()
	e := core.Global()
	e.RegisterBackend(name, func() (kernels.Backend, error) { return b, nil })
	if err := e.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	defer e.SetBackend("cpu")
	m := build(t)
	defer m.Dispose()
	d := data.SyntheticDigits(examples, 0.15, 1)
	defer d.Dispose()
	records := e.Profile(func() {
		if _, err := m.Fit(d.Images, d.Labels, layers.FitConfig{Epochs: 1, BatchSize: 32}); err != nil {
			t.Fatal(err)
		}
	}).Kernels
	names := map[string]int{}
	for _, r := range records {
		names[r.Name]++
	}
	for kernel, n := range names {
		if _, ok := b.Kernel(kernel); !ok {
			t.Errorf("%s (%d dispatches) has no %s kernel", kernel, n, b.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("the epoch dispatched nothing")
	}
	t.Logf("one epoch on %s: %d dispatches of %d kernels", b.Name(), len(records), len(names))
	return names
}

// TestNodeFitEpochRunsEveryKernelOnNode: every kernel one epoch of the
// bench convnet dispatches — ArgMax (the accuracy metric), Fill, GatherV2
// and Tile included — runs as node's own kernel.
func TestNodeFitEpochRunsEveryKernelOnNode(t *testing.T) {
	epochKernels(t, "node-counted", native.New(), benchConvnet, 128)
}

// depthwiseNet is a model of the layers the bench convnet lacks: a
// depthwise convolution with a channel multiplier of 2, batch
// normalization, a strided depthwise convolution (whose input gradient the
// tape needs) and an average pool.
func depthwiseNet(t *testing.T) *layers.Sequential {
	t.Helper()
	layers.SetSeed(5)
	m := layers.NewSequential("")
	m.Add(layers.NewDepthwiseConv2D(layers.Conv2DConfig{
		Filters: 2, KernelSize: []int{3, 3}, Padding: "same", Activation: "relu", InputShape: []int{16, 16, 1},
	}))
	m.Add(layers.NewBatchNormalization(layers.BatchNormConfig{}))
	m.Add(layers.NewDepthwiseConv2D(layers.Conv2DConfig{KernelSize: []int{3, 3}, Strides: []int{2, 2}, Padding: "same"}))
	m.Add(layers.NewAveragePooling2D(layers.Pool2DConfig{}))
	m.Add(layers.NewFlatten())
	m.Add(layers.NewDense(layers.DenseConfig{Units: 10, Activation: "softmax"}))
	if err := m.Compile(layers.CompileConfig{
		Optimizer: "adam", Loss: "categoricalCrossentropy",
		LearningRate: 0.01, Metrics: []string{"accuracy"},
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDepthwiseFitStepTakesNoFallback: one Fit step of depthwiseNet runs
// every kernel on node and on webgl fp32 — the depthwise and average-pool
// gradients and batch norm among them.
func TestDepthwiseFitStepTakesNoFallback(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend func() kernels.Backend
	}{
		{"node-counted-depthwise", func() kernels.Backend { return native.New() }},
		{"webgl-counted-depthwise", func() kernels.Backend { return webgl.New(webgl.DefaultConfig()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			names := epochKernels(t, c.name, c.backend(), depthwiseNet, 32)
			for _, kernel := range []string{"DepthwiseConv2dNativeBackpropInput", "DepthwiseConv2dNativeBackpropFilter", "AvgPoolGrad", "FusedBatchNorm"} {
				if names[kernel] == 0 {
					t.Errorf("the step dispatched no %s", kernel)
				}
			}
		})
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
// bias gradients' Sums and Adam's two kernels included — runs as a
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
