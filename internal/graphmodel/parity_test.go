package graphmodel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graphmodel"
	"repro/internal/kernels"
	"repro/internal/native"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
	"repro/internal/webgl"
)

func init() {
	core.Global().RegisterBackend("node", func() (kernels.Backend, error) { return native.New(), nil })
	core.Global().RegisterBackend("webgl", func() (kernels.Backend, error) { return webgl.New(webgl.DefaultConfig()), nil })
}

// randomGraph generates a random fusion-rich convnet: a few conv blocks
// (plain / depthwise, biased via BiasAdd, swapped Add or FusedBatchNorm,
// randomly activated), then Flatten → MatMul → BiasAdd → activation. Every
// construct the optimizer rewrites appears here with randomized shapes and
// weights, so executing with optimization on and off checks fusion, BN
// folding, constant folding and liveness disposal against the unoptimized
// graph as ground truth.
func randomGraph(rng *rand.Rand) (*savedmodel.GraphDef, []int) {
	g := &savedmodel.GraphDef{
		Nodes:   []savedmodel.NodeDef{{Name: "x", Op: "Placeholder"}},
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  []string{"x"},
	}
	randVals := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = rng.Float32()*2 - 1
		}
		return out
	}
	addConst := func(name string, shape []int, vals []float32) {
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: name, Op: "Const"})
		g.Weights[name] = &savedmodel.Weight{Name: name, Shape: shape, DType: "float32", Values: vals}
	}
	activations := []string{"", "Relu", "Relu6", "Elu", "Sigmoid", "Tanh", "Softplus"}

	h, w, c := 6, 6, 1+rng.Intn(3)
	inShape := []int{1, h, w, c}
	tail := "x"
	blocks := 1 + rng.Intn(3)
	for bi := 0; bi < blocks; bi++ {
		prefix := fmt.Sprintf("b%d/", bi)
		depthwise := rng.Intn(2) == 0
		fh := 1 + rng.Intn(3)
		var outC int
		var convOp, wName string
		if depthwise {
			mult := 1 + rng.Intn(2)
			outC = c * mult
			convOp = "DepthwiseConv2dNative"
			wName = prefix + "dw"
			addConst(wName, []int{fh, fh, c, mult}, randVals(fh*fh*c*mult))
		} else {
			outC = 1 + rng.Intn(4)
			convOp = "Conv2D"
			wName = prefix + "w"
			addConst(wName, []int{fh, fh, c, outC}, randVals(fh*fh*c*outC))
		}
		conv := prefix + "conv"
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: conv, Op: convOp, Inputs: []string{tail, wName},
			Attrs: map[string]any{"strides": []int{1, 1}, "padding": "same"}})
		tail = conv
		c = outC

		switch rng.Intn(3) {
		case 0: // BiasAdd
			addConst(prefix+"bias", []int{outC}, randVals(outC))
			g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: prefix + "badd", Op: "BiasAdd", Inputs: []string{tail, prefix + "bias"}})
			tail = prefix + "badd"
		case 1: // Add with swapped operands
			addConst(prefix+"bias", []int{outC}, randVals(outC))
			g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: prefix + "badd", Op: "Add", Inputs: []string{prefix + "bias", tail}})
			tail = prefix + "badd"
		case 2: // FusedBatchNorm with Const statistics
			for _, s := range []string{"mean", "beta", "gamma"} {
				addConst(prefix+s, []int{outC}, randVals(outC))
			}
			variance := make([]float32, outC)
			for i := range variance {
				variance[i] = 0.5 + rng.Float32()
			}
			addConst(prefix+"variance", []int{outC}, variance)
			g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: prefix + "bn", Op: "FusedBatchNorm",
				Inputs: []string{tail, prefix + "mean", prefix + "variance", prefix + "beta", prefix + "gamma"}})
			tail = prefix + "bn"
		}
		if act := activations[rng.Intn(len(activations))]; act != "" {
			g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: prefix + "act", Op: act, Inputs: []string{tail}})
			tail = prefix + "act"
		}
		if rng.Intn(3) == 0 { // occasional Identity for elision
			g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: prefix + "id", Op: "Identity", Inputs: []string{tail}})
			tail = prefix + "id"
		}
	}

	// Head: Flatten → MatMul → BiasAdd → activation.
	g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "flat", Op: "Flatten", Inputs: []string{tail}})
	units := 2 + rng.Intn(5)
	addConst("fc/w", []int{h * w * c, units}, randVals(h*w*c*units))
	addConst("fc/b", []int{units}, randVals(units))
	g.Nodes = append(g.Nodes,
		savedmodel.NodeDef{Name: "fc/mm", Op: "MatMul", Inputs: []string{"flat", "fc/w"}},
		savedmodel.NodeDef{Name: "fc/badd", Op: "BiasAdd", Inputs: []string{"fc/mm", "fc/b"}})
	tail = "fc/badd"
	if act := activations[1+rng.Intn(len(activations)-1)]; act != "" {
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: "fc/act", Op: act, Inputs: []string{tail}})
		tail = "fc/act"
	}
	g.Outputs = []string{tail}
	return g, inShape
}

// runModel executes one model on a fresh feed built from vals.
func runModel(t *testing.T, m *graphmodel.Model, vals []float32, shape []int) []float32 {
	t.Helper()
	var x *tensor.Tensor
	core.Global().RunExclusive(func() { x = ops.FromValues(vals, shape...) })
	defer x.Dispose()
	out, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Dispose()
	res := out.DataSync()
	return append([]float32(nil), res...)
}

// TestFusionParityRandomGraphs: for every backend tier, randomized graphs
// must produce the same outputs (to 1e-5) with the optimizer on and off.
func TestFusionParityRandomGraphs(t *testing.T) {
	for _, backend := range []string{"cpu", "node", "webgl"} {
		t.Run(backend, func(t *testing.T) {
			if err := core.Global().SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := core.Global().SetBackend("cpu"); err != nil {
					t.Fatal(err)
				}
			}()
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 8; trial++ {
				g, inShape := randomGraph(rng)
				on, err := graphmodel.New(g)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				off, err := graphmodel.New(g, graphmodel.WithExecOptions(exec.WithOptimize(false)))
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				vals := make([]float32, tensor.ShapeSize(inShape))
				for i := range vals {
					vals[i] = rng.Float32()*2 - 1
				}
				got := runModel(t, on, vals, inShape)
				want := runModel(t, off, vals, inShape)
				if len(got) != len(want) {
					t.Fatalf("trial %d: output sizes differ: %d vs %d", trial, len(got), len(want))
				}
				for i := range got {
					if diff := math.Abs(float64(got[i] - want[i])); diff > 1e-5 {
						t.Fatalf("trial %d (%d fused): output[%d] fused=%g unfused=%g (diff %g)",
							trial, on.OptimizeStats().NodesBefore-on.OptimizeStats().NodesAfter, i, got[i], want[i], diff)
					}
				}
				on.Dispose()
				off.Dispose()
			}
		})
	}
}
