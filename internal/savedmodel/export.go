package savedmodel

import (
	"fmt"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// FromSequential exports a built Layers-API model as a GraphDef — the
// analogue of saving a Keras model as a TensorFlow SavedModel before
// conversion: FromLayers over m's own weights. Along with the inference
// graph it emits a synthetic training subgraph (gradient and
// optimizer-update nodes marked TrainingOnly), so the converter's pruning
// step operates on a realistic serving/training mixture.
func FromSequential(m *layers.Sequential, addTrainingOps bool) (*GraphDef, error) {
	if err := m.Build(); err != nil {
		return nil, err
	}
	g, err := FromLayers(m, m.GetWeights())
	if err != nil || !addTrainingOps {
		return g, err
	}
	// A synthetic optimizer subgraph: one gradient node and one update
	// node per trainable weight, plus a saver. None of these are reachable
	// from the serving output, so conversion must drop them.
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
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FromLayers lowers the Layers model m, built or not, to its inference
// graph: m's layer configs give the nodes, and weights, read by name, the
// values of their constants. weights must be the ones m's layers declare,
// each with its declared shape (Sequential.CheckWeights). Nothing is built,
// so a lowering touches no engine.
func FromLayers(m *layers.Sequential, weights []layers.NamedWeight) (*GraphDef, error) {
	byName, err := m.CheckWeights(weights)
	if err != nil {
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

	prev, shape := input, inShape
	for _, l := range m.Layers() {
		if prev, err = exportLayer(g, l, prev, shape, byName); err != nil {
			return nil, err
		}
		if shape, err = l.OutputShape(shape); err != nil {
			return nil, err
		}
	}
	g.Outputs = []string{prev}
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

// exportLayer lowers one layer, whose per-example input shape is inShape,
// into graph nodes, returning the layer's output node name. weights holds
// every weight of the model by name.
func exportLayer(g *GraphDef, l layers.Layer, input string, inShape []int, weights map[string]layers.NamedWeight) (string, error) {
	cfg := l.Config()
	name := l.Name()
	// weight adds the layer's weight called name+suffix as a constant and
	// returns its node, or "" when the layer has no such weight.
	weight := func(suffix string) string {
		w, ok := weights[name+suffix]
		if !ok {
			return ""
		}
		return addConst(g, name+suffix, w.Shape, w.Values)
	}
	activation, _ := cfg["activation"].(string)
	opName, err := layers.ActivationKernel(activation)
	if err != nil {
		return "", fmt.Errorf("savedmodel: cannot export activation: %w", err)
	}

	out := input
	switch l.ClassName() {
	case "Dense":
		kernel := weight("/kernel")
		g.Nodes = append(g.Nodes, NodeDef{Name: name + "/MatMul", Op: "MatMul", Inputs: []string{out, kernel}})
		out = name + "/MatMul"
		if bias := weight("/bias"); bias != "" {
			g.Nodes = append(g.Nodes, NodeDef{Name: name + "/BiasAdd", Op: "BiasAdd", Inputs: []string{out, bias}})
			out = name + "/BiasAdd"
		}
	case "Conv2D", "DepthwiseConv2D":
		op, kernel := "Conv2D", "/kernel"
		if l.ClassName() == "DepthwiseConv2D" {
			op, kernel = "DepthwiseConv2dNative", "/depthwise_kernel"
		}
		kernel = weight(kernel)
		attrs := map[string]any{
			"strides": cfg["strides"],
			"padding": cfg["padding"],
		}
		g.Nodes = append(g.Nodes, NodeDef{Name: name + "/" + op, Op: op, Inputs: []string{out, kernel}, Attrs: attrs})
		out = name + "/" + op
		if bias := weight("/bias"); bias != "" {
			g.Nodes = append(g.Nodes, NodeDef{Name: name + "/BiasAdd", Op: "BiasAdd", Inputs: []string{out, bias}})
			out = name + "/BiasAdd"
		}
	case "BatchNormalization":
		// gamma and beta are there when the layer scales and centers.
		gamma, beta := weight("/gamma"), weight("/beta")
		mean, variance := weight("/moving_mean"), weight("/moving_variance")
		mShape := weights[name+"/moving_mean"].Shape
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
	case "Embedding":
		// One gather of the ids' rows: [batch, seq] ids → [batch, seq, dim].
		table := weight("/embeddings")
		g.Nodes = append(g.Nodes, NodeDef{
			Name: name + "/GatherV2", Op: "GatherV2", Inputs: []string{table, out},
			Attrs: map[string]any{"axis": 0},
		})
		out = name + "/GatherV2"
	case "SimpleRNN":
		consts := []string{weight("/kernel"), weight("/recurrent_kernel"), weight("/bias")}
		if out, err = exportSimpleRNN(g, name, cfg, consts, opName, out, inShape); err != nil {
			return "", err
		}
		opName = "" // applied at every step
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

	if opName != "" {
		g.Nodes = append(g.Nodes, NodeDef{Name: name + "/" + opName, Op: opName, Inputs: []string{out}})
		out = name + "/" + opName
	}
	return out, nil
}

// exportSimpleRNN unrolls the SimpleRNN name, its weights the constants
// consts (Wx, Wh, b), over its inShape [steps, features], as its eager Call
// does: step t slices x_t out of the input, then
// h_t = act(x_t·Wx + h_{t-1}·Wh + b), act the activation's kernel
// ("" for linear). h_{-1} is zero, so step 0 has no recurrent MatMul. With
// return_sequences one Concat on axis 1 joins the steps' [batch, units]
// states and a Reshape makes them [batch, steps, units]; without, the last
// state is the output.
//
// The unrolled graph serves exactly steps steps, so the layer's step count
// must be known (not -1) and at least 1. The graph starts with a Reshape
// of its input to [batch, steps, features], which fails for a sequence of
// any other length: a longer one would otherwise be served from its first
// steps alone.
func exportSimpleRNN(g *GraphDef, name string, cfg map[string]any, consts []string, act, input string, inShape []int) (string, error) {
	steps, features := inShape[0], inShape[1]
	if steps < 1 {
		return "", fmt.Errorf("savedmodel: cannot export SimpleRNN %q over input %v: its graph unrolls a fixed step count, at least 1", name, inShape)
	}
	g.Nodes = append(g.Nodes, NodeDef{
		Name: name + "/Reshape_input", Op: "Reshape", Inputs: []string{input},
		Attrs: map[string]any{"shape": []int{steps, features}},
	})
	input = name + "/Reshape_input"
	var h string
	states := make([]string, steps)
	for t := range states {
		// node appends step t's node called op, or the op's name when
		// called is "", and returns its name.
		node := func(called, op string, attrs map[string]any, inputs ...string) string {
			if called == "" {
				called = op
			}
			n := fmt.Sprintf("%s/step%d/%s", name, t, called)
			g.Nodes = append(g.Nodes, NodeDef{Name: n, Op: op, Inputs: inputs, Attrs: attrs})
			return n
		}
		xt := node("", "Slice", map[string]any{"begin": []int{0, t, 0}, "size": []int{-1, 1, features}}, input)
		xt = node("", "Reshape", map[string]any{"shape": []int{features}}, xt)
		z := node("", "MatMul", nil, xt, consts[0])
		if t > 0 {
			z = node("", "Add", nil, z, node("MatMul_1", "MatMul", nil, h, consts[1]))
		}
		h = node("", "BiasAdd", nil, z, consts[2])
		if act != "" {
			h = node("", act, nil, h)
		}
		states[t] = h
	}
	if rs, _ := cfg["return_sequences"].(bool); !rs {
		return h, nil
	}
	g.Nodes = append(g.Nodes, NodeDef{Name: name + "/Concat", Op: "Concat", Inputs: states, Attrs: map[string]any{"axis": 1}})
	units, _ := cfg["units"].(int)
	g.Nodes = append(g.Nodes, NodeDef{
		Name: name + "/Reshape", Op: "Reshape", Inputs: []string{name + "/Concat"},
		Attrs: map[string]any{"shape": []int{steps, units}},
	})
	return name + "/Reshape", nil
}
