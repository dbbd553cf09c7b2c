package converter_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/graphmodel"
	"repro/internal/kernels"
	"repro/internal/layers"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

func init() {
	core.Global().RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
}

// buildModel returns a small convnet exported with training ops attached.
func buildModel(t *testing.T) (*layers.Sequential, *savedmodel.GraphDef) {
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
	return m, g
}

func TestPruningDropsTrainingOps(t *testing.T) {
	_, g := buildModel(t)
	trainingNodes := 0
	for _, n := range g.Nodes {
		if n.TrainingOnly {
			trainingNodes++
		}
	}
	if trainingNodes == 0 {
		t.Fatal("export should have attached training-only nodes")
	}
	pruned, prunedNames := converter.Prune(g)
	if len(prunedNames) < trainingNodes {
		t.Fatalf("pruning dropped %d nodes, expected at least %d training nodes", len(prunedNames), trainingNodes)
	}
	for _, n := range pruned.Nodes {
		if n.TrainingOnly {
			t.Fatalf("training node %q survived pruning", n.Name)
		}
	}
	if err := pruned.Validate(); err != nil {
		t.Fatalf("pruned graph invalid: %v", err)
	}
}

func TestConvertLoadRoundTrip(t *testing.T) {
	model, g := buildModel(t)
	store := converter.NewMemStore()
	res, err := converter.Convert(g, store, converter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesAfter >= res.NodesBefore {
		t.Fatalf("conversion should prune nodes: before=%d after=%d", res.NodesBefore, res.NodesAfter)
	}

	gm, err := graphmodel.Load(store)
	if err != nil {
		t.Fatal(err)
	}
	x := ops.RandNormal([]int{2, 8, 8, 1}, 0, 1, rand.New(rand.NewSource(1)))
	want := model.Predict(x).DataSync()
	got, err := gm.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	gotVals := got.DataSync()
	for i := range want {
		if math.Abs(float64(want[i]-gotVals[i])) > 1e-5 {
			t.Fatalf("converted model diverges at %d: %g vs %g", i, gotVals[i], want[i])
		}
	}
}

func TestConverterShards4MB(t *testing.T) {
	// A model with >4MB of weights must split into multiple <=4MB shards.
	layers.SetSeed(5)
	m := layers.NewSequential("big")
	m.Add(layers.NewDense(layers.DenseConfig{Units: 1500, InputShape: []int{1000}})) // 1.5M params = 6 MB
	g, err := savedmodel.FromSequential(m, false)
	if err != nil {
		t.Fatal(err)
	}
	store := converter.NewMemStore()
	res, err := converter.Convert(g, store, converter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumShards < 2 {
		t.Fatalf("6 MB of weights should shard into >=2 files, got %d", res.NumShards)
	}
	paths, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !strings.HasSuffix(p, ".bin") {
			continue
		}
		data, err := store.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > converter.DefaultShardBytes {
			t.Fatalf("shard %s is %d bytes, exceeds 4MB", p, len(data))
		}
	}
	// Round trip still works.
	gm, err := graphmodel.Load(store)
	if err != nil {
		t.Fatal(err)
	}
	x := ops.RandNormal([]int{1, 1000}, 0, 1, nil)
	if _, err := gm.Predict(x); err != nil {
		t.Fatal(err)
	}
}

func TestQuantization4x(t *testing.T) {
	_, g := buildModel(t)

	full := converter.NewMemStore()
	if _, err := converter.Convert(g, full, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	quant8 := converter.NewMemStore()
	res8, err := converter.Convert(g, quant8, converter.Options{QuantizationBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	quant16 := converter.NewMemStore()
	res16, err := converter.Convert(g, quant16, converter.Options{QuantizationBytes: 2})
	if err != nil {
		t.Fatal(err)
	}

	fullRes, _ := converter.Convert(g, converter.NewMemStore(), converter.Options{})
	if res8.WeightBytes*4 != fullRes.WeightBytes {
		t.Fatalf("uint8 quantization should be exactly 4x smaller: %d vs %d", res8.WeightBytes, fullRes.WeightBytes)
	}
	if res16.WeightBytes*2 != fullRes.WeightBytes {
		t.Fatalf("uint16 quantization should be exactly 2x smaller: %d vs %d", res16.WeightBytes, fullRes.WeightBytes)
	}

	// Quantized weights reconstruct within the quantization step.
	gm, err := graphmodel.Load(quant8)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := converter.LoadArtifacts(full)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range gm.Graph().Weights {
		ow := orig.Weights[name]
		minV, maxV := float32(math.Inf(1)), float32(math.Inf(-1))
		for _, v := range ow.Values {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		step := float64(maxV-minV) / 255
		for i := range w.Values {
			if diff := math.Abs(float64(w.Values[i] - ow.Values[i])); diff > step*0.51+1e-8 {
				t.Fatalf("weight %s[%d] dequantization error %g exceeds half step %g", name, i, diff, step/2)
			}
		}
	}
}

func TestQuantizedModelStillPredictsReasonably(t *testing.T) {
	model, g := buildModel(t)
	store := converter.NewMemStore()
	if _, err := converter.Convert(g, store, converter.Options{QuantizationBytes: 2}); err != nil {
		t.Fatal(err)
	}
	gm, err := graphmodel.Load(store)
	if err != nil {
		t.Fatal(err)
	}
	x := ops.RandNormal([]int{4, 8, 8, 1}, 0, 1, rand.New(rand.NewSource(2)))
	want := model.Predict(x)
	got, err := gm.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	// Class predictions should agree even if probabilities shift slightly.
	wantCls := ops.ArgMax(want, 1).DataSync()
	gotCls := ops.ArgMax(got, 1).DataSync()
	for i := range wantCls {
		if wantCls[i] != gotCls[i] {
			t.Fatalf("uint16-quantized model changed prediction for example %d: %v vs %v", i, gotCls[i], wantCls[i])
		}
	}
}

func TestFSStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, g := buildModel(t)
	store := converter.FSStore{Dir: dir}
	if _, err := converter.Convert(g, store, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	paths, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	hasModel, hasShard := false, false
	for _, p := range paths {
		if p == "model.json" {
			hasModel = true
		}
		if strings.HasSuffix(p, ".bin") {
			hasShard = true
		}
	}
	if !hasModel || !hasShard {
		t.Fatalf("expected model.json and shard files, got %v", paths)
	}
	if _, err := graphmodel.Load(store); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingArtifact(t *testing.T) {
	store := converter.NewMemStore()
	if _, err := converter.LoadArtifacts(store); err == nil {
		t.Fatal("expected error loading from empty store")
	}
}

// TestHostileWeightSpecsFailAtLoad: a manifest the loader cannot honour
// — a negative dim, a shape whose size overflows, an unknown dtype, a
// shard holding bytes past the last weight or fewer than its weights
// need, a shard that is not there, a weight no Const node uses, a weight
// listed twice — is a load-time error naming the weight (or the missing
// shard), not a panic, a weight of zero values, a silent truncation or a
// silently dropped copy. A group's payload is exactly its weights' bytes.
func TestHostileWeightSpecsFailAtLoad(t *testing.T) {
	for _, c := range []struct {
		name, want string // want is what the error must name
		edit       func(model *converter.ModelJSON, shard *[]byte)
	}{
		{"negative dim", `weight "W"`, func(m *converter.ModelJSON, _ *[]byte) {
			m.WeightsManifest[0].Weights[0].Shape = []int{-1, 4}
		}},
		{"overflowing size", `weight "W"`, func(m *converter.ModelJSON, _ *[]byte) {
			m.WeightsManifest[0].Weights[0].Shape = []int{4611686018427387904, 4}
		}},
		{"unknown dtype", `weight "W"`, func(m *converter.ModelJSON, _ *[]byte) {
			m.WeightsManifest[0].Weights[0].DType = "complex128"
		}},
		{"bytes past the last weight", `weight "W"`, func(_ *converter.ModelJSON, shard *[]byte) {
			*shard = append(*shard, 0, 0, 0, 0)
		}},
		{"truncated shard", `weight "W"`, func(_ *converter.ModelJSON, shard *[]byte) {
			*shard = (*shard)[:len(*shard)-4]
		}},
		{"missing shard", `"missing.bin"`, func(m *converter.ModelJSON, _ *[]byte) {
			m.WeightsManifest[0].Paths = []string{"missing.bin"}
		}},
		{"weight no Const uses", `weight "V"`, func(m *converter.ModelJSON, shard *[]byte) {
			group := &m.WeightsManifest[0]
			group.Weights = append(group.Weights, converter.WeightSpec{Name: "V", Shape: []int{1}, DType: "float32"})
			*shard = append(*shard, 0, 0, 0, 0)
		}},
		{"weight listed twice", `weight "W"`, func(m *converter.ModelJSON, _ *[]byte) {
			m.WeightsManifest = append(m.WeightsManifest, m.WeightsManifest[0])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := &savedmodel.GraphDef{
				Nodes: []savedmodel.NodeDef{
					{Name: "x", Op: "Placeholder", Attrs: map[string]any{"shape": []int{-1, 2}}},
					{Name: "W", Op: "Const"},
					{Name: "y", Op: "MatMul", Inputs: []string{"x", "W"}},
				},
				Weights: map[string]*savedmodel.Weight{"W": {Name: "W", Shape: []int{2, 4}, DType: "float32", Values: make([]float32, 8)}},
				Inputs:  []string{"x"}, Outputs: []string{"y"},
			}
			store := converter.NewMemStore()
			if _, err := converter.Convert(g, store, converter.Options{}); err != nil {
				t.Fatal(err)
			}
			raw, err := store.Read("model.json")
			if err != nil {
				t.Fatal(err)
			}
			var model converter.ModelJSON
			if err := json.Unmarshal(raw, &model); err != nil {
				t.Fatal(err)
			}
			path := model.WeightsManifest[0].Paths[0]
			shard, err := store.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			c.edit(&model, &shard)
			if raw, err = json.Marshal(model); err != nil {
				t.Fatal(err)
			}
			if err := store.Write("model.json", raw); err != nil {
				t.Fatal(err)
			}
			if err := store.Write(path, shard); err != nil {
				t.Fatal(err)
			}
			_, err = converter.LoadArtifacts(store)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("load error %v does not name %s", err, c.want)
			}
		})
	}
}

// TestLoadersRejectTheOtherFormat: each loader reads the one format it
// returns, and says which format it found. A layers-model read as a graph
// was once an empty graph, and tf.LoadGraphModel an empty model. Load, the
// serving loader, reads both, and returns either as a graph.
func TestLoadersRejectTheOtherFormat(t *testing.T) {
	m, g := buildModel(t)
	graphStore, layersStore := converter.NewMemStore(), converter.NewMemStore()
	if _, err := converter.Convert(g, graphStore, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := converter.SaveLayersModel(m, layersStore, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, found string
		load        func() error
	}{
		{"LoadArtifacts", "layers-model", func() error { _, err := converter.LoadArtifacts(layersStore); return err }},
		{"graphmodel.Load", "layers-model", func() error { _, err := graphmodel.Load(layersStore); return err }},
		{"LoadLayersModel", "graph-model", func() error { _, err := converter.LoadLayersModel(graphStore); return err }},
	} {
		err := c.load()
		if err == nil || !strings.Contains(err.Error(), `"`+c.found+`"`) {
			t.Errorf("%s on a %s: error %v does not name the format found", c.name, c.found, err)
		}
	}
	// Load reads either format, and returns each as its graph; it lowers a
	// Layers model without building it, so it makes no tensor.
	for want, store := range map[string]converter.Store{converter.GraphModel: graphStore, converter.LayersModel: layersStore} {
		before := core.Global().Memory().NumTensors
		g, format, err := converter.Load(store)
		if err != nil {
			t.Fatal(err)
		}
		if format != want || g == nil || len(g.Inputs) != 1 || len(g.Outputs) != 1 {
			t.Fatalf("Load of a %s: format %q, graph %v", want, format, g)
		}
		if after := core.Global().Memory().NumTensors; after != before {
			t.Errorf("Load of a %s left %d tensors, %d before", want, after, before)
		}
	}
}

// TestLayersManifestListsEveryWeight: a layers-model manifest holds the
// weights the model's layers declare, each with the shape its layer's
// config gives. One left out, with its bytes, or one of another shape,
// with its bytes, is a load-time error naming the weight, from
// LoadLayersModel and from Load alike. The first used to load, the weight
// left at its initializer.
func TestLayersManifestListsEveryWeight(t *testing.T) {
	m, _ := buildModel(t)
	for _, c := range []struct {
		name string
		// edit changes the manifest's one group and its one shard, and
		// returns the weight the load error must name.
		edit func(group *converter.WeightsGroup, shard *[]byte) string
	}{
		{"weight left out", func(group *converter.WeightsGroup, shard *[]byte) string {
			last := group.Weights[len(group.Weights)-1]
			group.Weights = group.Weights[:len(group.Weights)-1]
			*shard = (*shard)[:len(*shard)-4*tensor.ShapeSize(last.Shape)]
			return last.Name
		}},
		{"kernel of another shape", func(group *converter.WeightsGroup, shard *[]byte) string {
			// The Dense kernel is [64 3]; the manifest says [65 3] and
			// holds a row more.
			end := 0
			for i := range group.Weights {
				w := &group.Weights[i]
				end += 4 * tensor.ShapeSize(w.Shape)
				if strings.HasSuffix(w.Name, "/kernel") && len(w.Shape) == 2 {
					w.Shape = []int{w.Shape[0] + 1, w.Shape[1]}
					*shard = append((*shard)[:end:end], append(make([]byte, 4*w.Shape[1]), (*shard)[end:]...)...)
					return w.Name
				}
			}
			t.Fatal("the model has no Dense kernel")
			return ""
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := converter.NewMemStore()
			if _, err := converter.SaveLayersModel(m, store, converter.Options{}); err != nil {
				t.Fatal(err)
			}
			raw, err := store.Read("model.json")
			if err != nil {
				t.Fatal(err)
			}
			var model converter.ModelJSON
			if err := json.Unmarshal(raw, &model); err != nil {
				t.Fatal(err)
			}
			group := &model.WeightsManifest[0]
			shard, err := store.Read(group.Paths[0])
			if err != nil {
				t.Fatal(err)
			}
			name := c.edit(group, &shard)
			if err := store.Write(group.Paths[0], shard); err != nil {
				t.Fatal(err)
			}
			if raw, err = json.Marshal(model); err != nil {
				t.Fatal(err)
			}
			if err := store.Write("model.json", raw); err != nil {
				t.Fatal(err)
			}
			for loader, load := range loaders {
				err := load(store)
				if want := fmt.Sprintf("weight %q", name); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: load error %v does not name %s", loader, err, want)
				}
			}
		})
	}
}

// loaders are the two readers of a layers-model: the in-process one, which
// builds the model, and serving's, which lowers it to its graph.
var loaders = map[string]func(converter.Store) error{
	"LoadLayersModel": func(s converter.Store) error {
		m, err := converter.LoadLayersModel(s)
		if err == nil {
			m.Dispose()
		}
		return err
	},
	"Load": func(s converter.Store) error { _, _, err := converter.Load(s); return err },
}

// TestHostileLayersTopologyFailsAtLoad: a layers-model topology whose layer
// config its class rejects — a Dense of 0 or -2 units, an integer key
// holding a fraction or a number no int holds, an unknown activation or
// kernel initializer, an empty pooling window — is a load-time error
// naming the layer, from both loaders. It used to panic out of the layer's
// constructor, and a server loads a model on a goroutine of its own.
func TestHostileLayersTopologyFailsAtLoad(t *testing.T) {
	m, _ := buildModel(t)
	const pool, dense = 1, 3
	for _, c := range []struct {
		name  string
		layer int
		key   string
		value any
		want  string // the error says this besides the layer's name
	}{
		{"zero units", dense, "units", 0, "units must be positive"},
		{"negative units", dense, "units", -2, "units must be positive"},
		{"fractional units", dense, "units", 2.5, `config "units": 2.5 is not an integer`},
		{"units no int holds", dense, "units", 1e30, `config "units": 1e+30 is not an integer`},
		{"unknown activation", dense, "activation", "bogus", "bogus"},
		{"unknown initializer", dense, "kernel_initializer", "bogus", "bogus"},
		{"empty pool window", pool, "pool_size", []int{0, 0}, "filterSize must be at least 1, got [0 0]"},
		{"fractional pool window", pool, "pool_size", []any{2, 1.5}, `config "pool_size": 1.5 is not an integer`},
		{"fractional input shape", 0, "input_shape", []any{8, 8.5, 1}, `config "input_shape": 8.5 is not an integer`},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := converter.NewMemStore()
			if _, err := converter.SaveLayersModel(m, store, converter.Options{}); err != nil {
				t.Fatal(err)
			}
			raw, err := store.Read("model.json")
			if err != nil {
				t.Fatal(err)
			}
			var model converter.ModelJSON
			if err := json.Unmarshal(raw, &model); err != nil {
				t.Fatal(err)
			}
			var topo struct {
				ClassName string `json:"class_name"`
				Config    struct {
					Name   string           `json:"name"`
					Layers []map[string]any `json:"layers"`
				} `json:"config"`
			}
			if err := json.Unmarshal(model.ModelTopology, &topo); err != nil {
				t.Fatal(err)
			}
			topo.Config.Layers[c.layer]["config"].(map[string]any)[c.key] = c.value
			if model.ModelTopology, err = json.Marshal(topo); err != nil {
				t.Fatal(err)
			}
			if raw, err = json.Marshal(model); err != nil {
				t.Fatal(err)
			}
			if err := store.Write("model.json", raw); err != nil {
				t.Fatal(err)
			}
			name := m.Layers()[c.layer].Name()
			for loader, load := range loaders {
				if err := load(store); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: load error %v does not name the layer %q and say %q", loader, err, name, c.want)
				}
			}
		})
	}
}

// TestLayersLoadTakesNoEngineLock: Load lowers a layers-model from its
// topology and manifest alone, so it returns while another goroutine holds
// the global engine's execution lock, as a model executing there does.
func TestLayersLoadTakesNoEngineLock(t *testing.T) {
	m, _ := buildModel(t)
	store := converter.NewMemStore()
	if _, err := converter.SaveLayersModel(m, store, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	go core.Global().RunExclusive(func() {
		close(held)
		<-release
	})
	<-held
	defer close(release)
	loaded := make(chan error, 1)
	go func() {
		_, _, err := converter.Load(store)
		loaded <- err
	}()
	select {
	case err := <-loaded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Load of a layers-model waited on the engine's execution lock")
	}
}
