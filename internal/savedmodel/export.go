package savedmodel

import (
	"fmt"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// FromSequential exports a built Layers-API model as a GraphDef — the
// analogue of saving a Keras model as a TensorFlow SavedModel before
// conversion. Along with the inference graph it emits a synthetic training
// subgraph (gradient and optimizer-update nodes marked TrainingOnly), so
// the converter's pruning step operates on a realistic serving/training
// mixture.
func FromSequential(m *layers.Sequential, addTrainingOps bool) (*GraphDef, error) {
	if err := m.Build(); err != nil {
		return nil, err
	}
	g := &GraphDef{Weights: map[string]*Weight{}}
	input := "serving_input"
	// Stamp the Placeholder with its static shape (batch dimension unknown)
	// so the load-time verifier can propagate concrete dimensions through
	// the whole graph instead of starting from an unknown rank.
	inShape, err := m.InputShape()
	if err != nil {
		return nil, err
	}
	g.Nodes = append(g.Nodes, NodeDef{
		Name: input, Op: "Placeholder",
		Attrs: map[string]any{"dtype": "float32", "shape": append([]int{-1}, inShape...)},
	})
	g.Inputs = []string{input}

	prev := input
	for _, l := range m.Layers() {
		var err error
		prev, err = exportLayer(g, l, prev)
		if err != nil {
			return nil, err
		}
	}
	g.Outputs = []string{prev}

	if addTrainingOps {
		// A synthetic optimizer subgraph: one gradient node and one
		// update node per trainable weight, plus a saver. None of these
		// are reachable from the serving output, so conversion must drop
		// them.
		for _, v := range m.TrainableWeights() {
			gradName := v.Name + "/grad"
			g.Nodes = append(g.Nodes, NodeDef{
				Name: gradName, Op: "Gradient", Inputs: []string{g.Outputs[0], constName(v.Name)},
				TrainingOnly: true,
			})
			g.Nodes = append(g.Nodes, NodeDef{
				Name: v.Name + "/apply_sgd", Op: "ApplyGradientDescent",
				Inputs: []string{constName(v.Name), gradName}, TrainingOnly: true,
			})
		}
		g.Nodes = append(g.Nodes, NodeDef{Name: "save/SaveV2", Op: "SaveV2", TrainingOnly: true})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func constName(weightName string) string { return "const/" + weightName }

// addConst registers a weight constant node.
func addConst(g *GraphDef, name string, shape []int, values []float32) string {
	n := constName(name)
	if _, ok := g.Weights[n]; ok {
		return n
	}
	g.Nodes = append(g.Nodes, NodeDef{Name: n, Op: "Const"})
	g.Weights[n] = &Weight{Name: n, Shape: tensor.CopyShape(shape), DType: "float32", Values: values}
	return n
}

// exportLayer lowers one layer into graph nodes, returning the layer's
// output node name.
func exportLayer(g *GraphDef, l layers.Layer, input string) (string, error) {
	cfg := l.Config()
	name := l.Name()
	weights := l.Weights()
	weightVals := func(i int) ([]int, []float32) {
		v := weights[i]
		return v.Shape(), v.Value().DataSync()
	}
	activation := ""
	if a, ok := cfg["activation"].(string); ok {
		activation = a
	}

	out := input
	switch l.ClassName() {
	case "Dense":
		kShape, kVals := weightVals(0)
		kernel := addConst(g, name+"/kernel", kShape, kVals)
		g.Nodes = append(g.Nodes, NodeDef{Name: name + "/MatMul", Op: "MatMul", Inputs: []string{out, kernel}})
		out = name + "/MatMul"
		if len(weights) > 1 {
			bShape, bVals := weightVals(1)
			bias := addConst(g, name+"/bias", bShape, bVals)
			g.Nodes = append(g.Nodes, NodeDef{Name: name + "/BiasAdd", Op: "BiasAdd", Inputs: []string{out, bias}})
			out = name + "/BiasAdd"
		}
	case "Conv2D", "DepthwiseConv2D":
		op := "Conv2D"
		kernelName := name + "/kernel"
		if l.ClassName() == "DepthwiseConv2D" {
			op = "DepthwiseConv2dNative"
			kernelName = name + "/depthwise_kernel"
		}
		kShape, kVals := weightVals(0)
		kernel := addConst(g, kernelName, kShape, kVals)
		attrs := map[string]any{
			"strides": cfg["strides"],
			"padding": cfg["padding"],
		}
		g.Nodes = append(g.Nodes, NodeDef{Name: name + "/" + op, Op: op, Inputs: []string{out, kernel}, Attrs: attrs})
		out = name + "/" + op
		if useBias, _ := cfg["use_bias"].(bool); useBias && len(weights) > 1 {
			bShape, bVals := weightVals(1)
			bias := addConst(g, name+"/bias", bShape, bVals)
			g.Nodes = append(g.Nodes, NodeDef{Name: name + "/BiasAdd", Op: "BiasAdd", Inputs: []string{out, bias}})
			out = name + "/BiasAdd"
		}
	case "BatchNormalization":
		// Weights order: gamma?, beta?, movingMean, movingVar.
		idx := 0
		var gamma, beta string
		if scale, _ := cfg["scale"].(bool); scale {
			s, v := weightVals(idx)
			gamma = addConst(g, name+"/gamma", s, v)
			idx++
		}
		if center, _ := cfg["center"].(bool); center {
			s, v := weightVals(idx)
			beta = addConst(g, name+"/beta", s, v)
			idx++
		}
		mShape, mVals := weightVals(idx)
		mean := addConst(g, name+"/moving_mean", mShape, mVals)
		vShape, vVals := weightVals(idx + 1)
		variance := addConst(g, name+"/moving_variance", vShape, vVals)
		if gamma == "" {
			ones := make([]float32, tensor.ShapeSize(mShape))
			for i := range ones {
				ones[i] = 1
			}
			gamma = addConst(g, name+"/gamma_default", mShape, ones)
		}
		if beta == "" {
			beta = addConst(g, name+"/beta_default", mShape, make([]float32, tensor.ShapeSize(mShape)))
		}
		eps := 1e-3
		if e, ok := cfg["epsilon"].(float64); ok {
			eps = e
		}
		g.Nodes = append(g.Nodes, NodeDef{
			Name: name + "/FusedBatchNorm", Op: "FusedBatchNorm",
			Inputs: []string{out, mean, variance, beta, gamma},
			Attrs:  map[string]any{"epsilon": eps},
		})
		out = name + "/FusedBatchNorm"
	case "MaxPooling2D", "AveragePooling2D":
		op := "MaxPool"
		if l.ClassName() == "AveragePooling2D" {
			op = "AvgPool"
		}
		g.Nodes = append(g.Nodes, NodeDef{
			Name: name + "/" + op, Op: op, Inputs: []string{out},
			Attrs: map[string]any{
				"ksize":   cfg["pool_size"],
				"strides": cfg["strides"],
				"padding": cfg["padding"],
			},
		})
		out = name + "/" + op
	case "GlobalAveragePooling2D":
		g.Nodes = append(g.Nodes, NodeDef{
			Name: name + "/Mean", Op: "Mean", Inputs: []string{out},
			Attrs: map[string]any{"axes": []int{1, 2}},
		})
		out = name + "/Mean"
	case "Flatten":
		g.Nodes = append(g.Nodes, NodeDef{
			Name: name + "/Reshape", Op: "Flatten", Inputs: []string{out},
		})
		out = name + "/Reshape"
	case "Reshape":
		g.Nodes = append(g.Nodes, NodeDef{
			Name: name + "/Reshape", Op: "Reshape", Inputs: []string{out},
			Attrs: map[string]any{"shape": cfg["target_shape"]},
		})
		out = name + "/Reshape"
	case "ZeroPadding2D":
		g.Nodes = append(g.Nodes, NodeDef{
			Name: name + "/Pad", Op: "Pad", Inputs: []string{out},
			Attrs: map[string]any{"padding": cfg["padding"]},
		})
		out = name + "/Pad"
	case "Activation":
		// handled by the shared activation lowering below
	case "Dropout":
		// Inference no-op: lower to Identity so the graph still records
		// the layer boundary.
		g.Nodes = append(g.Nodes, NodeDef{Name: name + "/Identity", Op: "Identity", Inputs: []string{out}})
		out = name + "/Identity"
	default:
		return "", fmt.Errorf("savedmodel: cannot export layer class %q", l.ClassName())
	}

	opName, err := layers.ActivationKernel(activation)
	if err != nil {
		return "", fmt.Errorf("savedmodel: cannot export activation: %w", err)
	}
	if opName != "" {
		g.Nodes = append(g.Nodes, NodeDef{Name: name + "/" + opName, Op: opName, Inputs: []string{out}})
		out = name + "/" + opName
	}
	return out, nil
}
