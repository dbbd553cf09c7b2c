package savedmodel_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/graphmodel"
	"repro/internal/kernels"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

func init() {
	core.Global().RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
}

// TestExportEveryLayerClass builds two models that between them touch
// every registered layer class — a kitchen-sink convnet and an Embedding →
// SimpleRNN (sequences) → SimpleRNN → Dense sequence model — converts each
// end to end (export → artifacts → reload → execute) and compares against
// the Layers model's own predictions. A class registered with
// layers.RegisterLayerClass that neither model uses fails the test: every
// class a Layers artifact can name must lower to the graph it is served as.
func TestExportEveryLayerClass(t *testing.T) {
	layers.SetSeed(55)
	useBias := true
	sink := layers.NewSequential("kitchen_sink")
	sink.Add(layers.NewZeroPadding2D([]int{1}))
	sink.SetInputShape([]int{6, 6, 2})
	sink.Add(layers.NewConv2D(layers.Conv2DConfig{
		Filters: 4, KernelSize: []int{3, 3}, Padding: "valid", Activation: "relu6", UseBias: &useBias,
	}))
	sink.Add(layers.NewBatchNormalization(layers.BatchNormConfig{}))
	sink.Add(layers.NewActivation("relu"))
	sink.Add(layers.NewDepthwiseConv2D(layers.Conv2DConfig{
		Filters: 1, KernelSize: []int{3, 3}, Padding: "same", Activation: "tanh",
	}))
	sink.Add(layers.NewMaxPooling2D(layers.Pool2DConfig{PoolSize: []int{2, 2}}))
	sink.Add(layers.NewAveragePooling2D(layers.Pool2DConfig{PoolSize: []int{2, 2}, Strides: []int{1, 1}, Padding: "same"}))
	sink.Add(layers.NewDropout(0.3))
	sink.Add(layers.NewFlatten())
	sink.Add(layers.NewDense(layers.DenseConfig{Units: 12, Activation: "sigmoid"}))
	sink.Add(layers.NewReshape([]int{2, 2, 3}))
	sink.Add(layers.NewGlobalAveragePooling2D())
	sink.Add(layers.NewDense(layers.DenseConfig{Units: 5, Activation: "softmax"}))

	rnn := layers.NewSequential("sequence")
	rnn.Add(layers.NewEmbedding(layers.EmbeddingConfig{InputDim: 7, OutputDim: 4, InputLength: 5}))
	rnn.Add(layers.NewSimpleRNN(layers.SimpleRNNConfig{Units: 6, ReturnSequences: true}))
	rnn.Add(layers.NewSimpleRNN(layers.SimpleRNNConfig{Units: 3, Activation: "relu"}))
	rnn.Add(layers.NewDense(layers.DenseConfig{Units: 2}))
	randomWeights(t, rnn, 8)
	ids := make([]float32, 3*5)
	for i := range ids {
		ids[i] = float32((i*3 + 1) % 7)
	}

	exported := map[string]bool{}
	for _, c := range []struct {
		m *layers.Sequential
		x *tensor.Tensor
	}{
		{sink, ops.RandNormal([]int{3, 6, 6, 2}, 0, 1, nil)},
		{rnn, ops.FromValues(ids, 3, 5)},
	} {
		defer c.x.Dispose()
		for _, l := range c.m.Layers() {
			exported[l.ClassName()] = true
		}
		g, err := savedmodel.FromSequential(c.m, true)
		if err != nil {
			t.Fatal(err)
		}
		store := converter.NewMemStore()
		if _, err := converter.Convert(g, store, converter.Options{}); err != nil {
			t.Fatal(err)
		}
		gm, err := graphmodel.Load(store)
		if err != nil {
			t.Fatal(err)
		}
		want := c.m.Predict(c.x)
		defer want.Dispose()
		got, err := gm.Predict(c.x)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Dispose()
		wv, gv := want.DataSync(), got.DataSync()
		if !slices.Equal(want.Shape, got.Shape) {
			t.Fatalf("%s model: graph output shape %v, eager %v", c.m.Name(), got.Shape, want.Shape)
		}
		for i := range wv {
			if math.Abs(float64(wv[i]-gv[i])) > 1e-5 {
				t.Fatalf("%s model diverges at %d: %g vs %g", c.m.Name(), i, gv[i], wv[i])
			}
		}
	}
	for _, class := range layers.LayerClasses() {
		if !exported[class] {
			t.Errorf("layer class %q is in neither model: its export is untested", class)
		}
	}
}

// TestLoadLowersAsFromSequential: converter.Load lowers a layers-model
// artifact from its layer configs and manifest, building nothing, to the
// GraphDef FromSequential exports from the built model: the same nodes
// with the same attributes, inputs and outputs, and every weight of the
// same shape and Float32bits-equal values. It holds for the two models of
// TestExportEveryLayerClass, which use every layer class, and a MobileNet.
func TestLoadLowersAsFromSequential(t *testing.T) {
	layers.SetSeed(55)
	useBias := true
	sink := layers.NewSequential("kitchen_sink")
	sink.Add(layers.NewZeroPadding2D([]int{1}))
	sink.SetInputShape([]int{6, 6, 2})
	sink.Add(layers.NewConv2D(layers.Conv2DConfig{
		Filters: 4, KernelSize: []int{3, 3}, Padding: "valid", Activation: "relu6", UseBias: &useBias,
	}))
	sink.Add(layers.NewBatchNormalization(layers.BatchNormConfig{}))
	sink.Add(layers.NewActivation("relu"))
	sink.Add(layers.NewDepthwiseConv2D(layers.Conv2DConfig{
		Filters: 1, KernelSize: []int{3, 3}, Padding: "same", Activation: "tanh",
	}))
	sink.Add(layers.NewMaxPooling2D(layers.Pool2DConfig{PoolSize: []int{2, 2}}))
	sink.Add(layers.NewAveragePooling2D(layers.Pool2DConfig{PoolSize: []int{2, 2}, Strides: []int{1, 1}, Padding: "same"}))
	sink.Add(layers.NewDropout(0.3))
	sink.Add(layers.NewFlatten())
	sink.Add(layers.NewDense(layers.DenseConfig{Units: 12, Activation: "sigmoid"}))
	sink.Add(layers.NewReshape([]int{2, 2, 3}))
	sink.Add(layers.NewGlobalAveragePooling2D())
	sink.Add(layers.NewDense(layers.DenseConfig{Units: 5, Activation: "softmax"}))
	randomWeights(t, sink, 7)

	rnn := layers.NewSequential("sequence")
	rnn.Add(layers.NewEmbedding(layers.EmbeddingConfig{InputDim: 7, OutputDim: 4, InputLength: 5}))
	rnn.Add(layers.NewSimpleRNN(layers.SimpleRNNConfig{Units: 6, ReturnSequences: true}))
	rnn.Add(layers.NewSimpleRNN(layers.SimpleRNNConfig{Units: 3, Activation: "relu"}))
	rnn.Add(layers.NewDense(layers.DenseConfig{Units: 2}))
	randomWeights(t, rnn, 8)

	mobilenet, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: 0.25, InputSize: 32, NumClasses: 6, IncludeTop: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*layers.Sequential{sink, rnn, mobilenet} {
		defer m.Dispose()
		want, err := savedmodel.FromSequential(m, false)
		if err != nil {
			t.Fatal(err)
		}
		store := converter.NewMemStore()
		if _, err := converter.SaveLayersModel(m, store, converter.Options{}); err != nil {
			t.Fatal(err)
		}
		got, _, err := converter.Load(store)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Nodes, want.Nodes) || !slices.Equal(got.Inputs, want.Inputs) || !slices.Equal(got.Outputs, want.Outputs) {
			t.Fatalf("%s: Load's graph has other nodes than FromSequential's:\n%+v\n%+v", m.Name(), got.Nodes, want.Nodes)
		}
		if len(got.Weights) != len(want.Weights) {
			t.Fatalf("%s: Load's graph has %d weights, FromSequential's %d", m.Name(), len(got.Weights), len(want.Weights))
		}
		for name, w := range want.Weights {
			g := got.Weights[name]
			if g == nil || g.Name != w.Name || g.DType != w.DType || !slices.Equal(g.Shape, w.Shape) || len(g.Values) != len(w.Values) {
				t.Fatalf("%s: weight %q is %+v in Load's graph, %+v in FromSequential's", m.Name(), name, g, w)
			}
			for i, v := range w.Values {
				if math.Float32bits(g.Values[i]) != math.Float32bits(v) {
					t.Fatalf("%s: weight %q value %d is %g in Load's graph, %g in FromSequential's", m.Name(), name, i, g.Values[i], v)
				}
			}
		}
	}
}

// randomWeights gives every weight of m values in [-0.5, 0.5): a zero
// initializer (a bias) would hide a term the lowering dropped.
func randomWeights(t *testing.T, m *layers.Sequential, seed int64) {
	t.Helper()
	if err := m.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ws := m.GetWeights()
	for i := range ws {
		ws[i].Values = make([]float32, len(ws[i].Values))
		for j := range ws[i].Values {
			ws[i].Values[j] = rng.Float32() - 0.5
		}
	}
	if err := m.SetWeights(ws); err != nil {
		t.Fatal(err)
	}
}

// opaque is a layer class with no graph lowering: an identity no exporter
// knows, and which is not registered.
type opaque struct{}

func (opaque) Name() string                                 { return "opaque" }
func (opaque) ClassName() string                            { return "Opaque" }
func (opaque) Build([]int) error                            { return nil }
func (opaque) OutputShape(in []int) ([]int, error)          { return in, nil }
func (opaque) Call(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (opaque) Weights() []*core.Variable                    { return nil }
func (opaque) Config() map[string]any                       { return map[string]any{"name": "opaque"} }

// TestExportUnsupportedLayerErrors: a class without a graph lowering fails
// loudly, naming the class, rather than producing a wrong graph.
func TestExportUnsupportedLayerErrors(t *testing.T) {
	m := layers.NewSequential("opaque_export")
	m.SetInputShape([]int{3})
	m.Add(opaque{})
	if _, err := savedmodel.FromSequential(m, false); err == nil || !strings.Contains(err.Error(), `"Opaque"`) {
		t.Fatalf("export of an unknown layer class: error %v, want one naming \"Opaque\"", err)
	}
}

// TestMultiOutputGraphExecute feeds a graph with two serving outputs.
func TestMultiOutputGraphExecute(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "double", Op: "Mul", Inputs: []string{"x", "two"}},
			{Name: "two", Op: "Const"},
			{Name: "squash", Op: "Sigmoid", Inputs: []string{"x"}},
		},
		Weights: map[string]*savedmodel.Weight{
			"two": {Name: "two", Shape: nil, DType: "float32", Values: []float32{2}},
		},
		Inputs:  []string{"x"},
		Outputs: []string{"double", "squash"},
	}
	m, err := graphmodel.New(g)
	if err != nil {
		t.Fatal(err)
	}
	x := ops.FromValues([]float32{0, 1}, 2)
	defer x.Dispose()
	outs, err := m.Execute(map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	d := outs["double"].DataSync()
	s := outs["squash"].DataSync()
	if d[0] != 0 || d[1] != 2 {
		t.Fatalf("double = %v", d)
	}
	if math.Abs(float64(s[0])-0.5) > 1e-6 {
		t.Fatalf("squash = %v", s)
	}
	outs["double"].Dispose()
	outs["squash"].Dispose()
}
