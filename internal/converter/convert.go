package converter

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

// DefaultShardBytes is the 4 MB shard size the paper calls out: "packs
// weights into 4MB files, optimizing for browser auto-caching".
const DefaultShardBytes = 4 << 20

// Options configures a conversion.
type Options struct {
	// QuantizationBytes is 0 (none), 1 (uint8, 4x smaller) or
	// 2 (uint16, 2x smaller).
	QuantizationBytes int
	// ShardBytes overrides the shard size; 0 means DefaultShardBytes.
	ShardBytes int
}

// WeightQuant records the affine dequantization parameters of one
// weight (the uint8/uint16 transport encodings of §5.1).
type WeightQuant struct {
	Min   float64 `json:"min,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	DType string  `json:"dtype"` // "uint8" or "uint16"
}

// WeightSpec describes one weight inside the manifest.
type WeightSpec struct {
	Name         string       `json:"name"`
	Shape        []int        `json:"shape"`
	DType        string       `json:"dtype"`
	Quantization *WeightQuant `json:"quantization,omitempty"`
}

// WeightsGroup is one manifest entry: an ordered list of shard files plus
// the weights packed (contiguously, in order) across them.
type WeightsGroup struct {
	Paths   []string     `json:"paths"`
	Weights []WeightSpec `json:"weights"`
}

// ModelJSON is the top-level model.json artifact, mirroring the
// TensorFlow.js web format.
type ModelJSON struct {
	Format          string          `json:"format"`
	GeneratedBy     string          `json:"generatedBy"`
	ConvertedBy     string          `json:"convertedBy"`
	ModelTopology   json.RawMessage `json:"modelTopology"`
	WeightsManifest []WeightsGroup  `json:"weightsManifest"`
}

// Result summarizes a conversion.
type Result struct {
	// NodesBefore/NodesAfter count graph nodes around pruning.
	NodesBefore, NodesAfter int
	// PrunedNodes lists the dropped node names.
	PrunedNodes []string
	// WeightBytes is the total size of the emitted shard files.
	WeightBytes int64
	// NumShards is the number of weight files written.
	NumShards int
}

// Convert prunes the graph, packs and optionally quantizes its weights and
// writes the web-format artifacts into store.
func Convert(g *savedmodel.GraphDef, store Store, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	shardBytes := opts.ShardBytes
	if shardBytes <= 0 {
		shardBytes = DefaultShardBytes
	}
	if opts.QuantizationBytes != 0 && opts.QuantizationBytes != 1 && opts.QuantizationBytes != 2 {
		return nil, fmt.Errorf("converter: quantization must be 0, 1 or 2 bytes, got %d", opts.QuantizationBytes)
	}

	pruned, prunedNames := Prune(g)
	res := &Result{NodesBefore: len(g.Nodes), NodesAfter: len(pruned.Nodes), PrunedNodes: prunedNames}
	// The graph being shipped is verified (savedmodel.VerifyGraph): a model
	// the plan cannot run is rejected here, not at the first predict.
	if err := savedmodel.VerifyGraph(pruned); err != nil {
		return nil, fmt.Errorf("converter: refusing to write artifacts: %w", err)
	}

	// Pack weights in deterministic (node) order.
	var specs []WeightSpec
	var payload []byte
	for _, n := range pruned.Nodes {
		if n.Op != "Const" {
			continue
		}
		w := pruned.Weights[n.Name]
		spec := WeightSpec{Name: w.Name, Shape: tensor.CopyShape(w.Shape), DType: "float32"}
		data, quant := encodeWeight(w.Values, opts.QuantizationBytes)
		spec.Quantization = quant
		specs = append(specs, spec)
		payload = append(payload, data...)
	}

	// Split into <= shardBytes files.
	var paths []string
	numShards := (len(payload) + shardBytes - 1) / shardBytes
	if numShards == 0 {
		numShards = 1
	}
	for i := 0; i < numShards; i++ {
		lo := i * shardBytes
		hi := lo + shardBytes
		if hi > len(payload) {
			hi = len(payload)
		}
		path := fmt.Sprintf("group1-shard%dof%d.bin", i+1, numShards)
		if err := store.Write(path, payload[lo:hi]); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	res.WeightBytes = int64(len(payload))
	res.NumShards = numShards

	topo, err := pruned.MarshalTopology()
	if err != nil {
		return nil, err
	}
	model := ModelJSON{
		Format:          "graph-model",
		GeneratedBy:     "savedmodel-go",
		ConvertedBy:     "tfjs-go-converter",
		ModelTopology:   topo,
		WeightsManifest: []WeightsGroup{{Paths: paths, Weights: specs}},
	}
	modelData, err := json.MarshalIndent(model, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := store.Write("model.json", modelData); err != nil {
		return nil, err
	}
	return res, nil
}

// Prune returns a copy of the graph containing only nodes reachable from
// the serving outputs — dropping training-only subgraphs exactly as the
// paper's converter "prunes unnecessary operations (e.g. training
// operations)". It also drops now-unreferenced weights.
func Prune(g *savedmodel.GraphDef) (*savedmodel.GraphDef, []string) {
	keep := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if keep[name] {
			return
		}
		keep[name] = true
		if n, ok := g.Node(name); ok {
			for _, in := range n.Inputs {
				visit(in)
			}
		}
	}
	for _, out := range g.Outputs {
		visit(out)
	}
	out := &savedmodel.GraphDef{
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  append([]string(nil), g.Inputs...),
		Outputs: append([]string(nil), g.Outputs...),
	}
	var prunedNames []string
	for _, n := range g.Nodes {
		if keep[n.Name] {
			out.Nodes = append(out.Nodes, n)
			if n.Op == "Const" {
				out.Weights[n.Name] = g.Weights[n.Name]
			}
		} else {
			prunedNames = append(prunedNames, n.Name)
		}
	}
	return out, prunedNames
}

// encodeWeight serializes values as float32 LE, or quantized uint8/uint16
// with affine dequantization parameters (the 4x size reduction of §5.1).
func encodeWeight(values []float32, quantBytes int) ([]byte, *WeightQuant) {
	switch quantBytes {
	case 0:
		out := make([]byte, 4*len(values))
		for i, v := range values {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		return out, nil
	default:
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, v := range values {
			f := float64(v)
			if f < minV {
				minV = f
			}
			if f > maxV {
				maxV = f
			}
		}
		if len(values) == 0 {
			minV, maxV = 0, 0
		}
		levels := float64(uint(1)<<(8*quantBytes)) - 1
		scale := (maxV - minV) / levels
		if scale == 0 {
			scale = 1
		}
		quant := &WeightQuant{Min: minV, Scale: scale}
		if quantBytes == 1 {
			quant.DType = "uint8"
			out := make([]byte, len(values))
			for i, v := range values {
				out[i] = byte(math.Round((float64(v) - minV) / scale))
			}
			return out, quant
		}
		quant.DType = "uint16"
		out := make([]byte, 2*len(values))
		for i, v := range values {
			q := uint16(math.Round((float64(v) - minV) / scale))
			binary.LittleEndian.PutUint16(out[2*i:], q)
		}
		return out, quant
	}
}

// decodeWeight decodes spec's values from the front of payload, the
// inverse of encodeWeight, and returns them with the bytes they take. A
// spec whose dtype is unknown, whose shape has a negative dim, or whose
// values need more bytes than payload holds is an error: its size would
// wrap, or mis-slice every weight packed after it.
func decodeWeight(spec WeightSpec, payload []byte) ([]float32, int, error) {
	if _, err := tensor.ParseDataType(spec.DType); err != nil {
		return nil, 0, err
	}
	n := 1
	for _, d := range spec.Shape {
		if d < 0 {
			return nil, 0, fmt.Errorf("negative dim in shape %v", spec.Shape)
		}
		// Every value takes at least one byte, so the product stays below
		// the payload's length and cannot overflow.
		if d > 0 && n > len(payload)/d {
			return nil, 0, fmt.Errorf("shape %v exceeds payload", spec.Shape)
		}
		n *= d
	}
	quant, width := spec.Quantization, 4
	switch {
	case quant == nil:
	case quant.DType == "uint8":
		width = 1
	case quant.DType == "uint16":
		width = 2
	default:
		return nil, 0, fmt.Errorf("unknown quantization dtype %q", quant.DType)
	}
	if width*n > len(payload) {
		return nil, 0, fmt.Errorf("shape %v exceeds payload", spec.Shape)
	}
	out := make([]float32, n)
	switch width {
	case 4:
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
	case 1:
		for i := range out {
			out[i] = float32(quant.Min + float64(payload[i])*quant.Scale)
		}
	default:
		for i := range out {
			out[i] = float32(quant.Min + float64(binary.LittleEndian.Uint16(payload[2*i:]))*quant.Scale)
		}
	}
	return out, width * n, nil
}

// loadWeights reads the weights of every group of a manifest, in order. A
// group's shards hold its weights' bytes end to end and nothing else: a
// byte past its last weight is an error too.
func loadWeights(store Store, groups []WeightsGroup) ([]savedmodel.Weight, error) {
	var weights []savedmodel.Weight
	for _, group := range groups {
		var payload []byte
		for _, path := range group.Paths {
			shard, err := store.Read(path)
			if err != nil {
				return nil, fmt.Errorf("converter: reading shard %q: %w", path, err)
			}
			payload = append(payload, shard...)
		}
		offset := 0
		for _, spec := range group.Weights {
			values, n, err := decodeWeight(spec, payload[offset:])
			if err != nil {
				return nil, fmt.Errorf("converter: weight %q: %w", spec.Name, err)
			}
			offset += n
			weights = append(weights, savedmodel.Weight{Name: spec.Name, Shape: spec.Shape, DType: spec.DType, Values: values})
		}
		if rest := len(payload) - offset; rest != 0 {
			last := ""
			if len(group.Weights) > 0 {
				last = group.Weights[len(group.Weights)-1].Name
			}
			return nil, fmt.Errorf("converter: %d bytes follow weight %q, the last of shards %v", rest, last, group.Paths)
		}
	}
	return weights, nil
}

// LoadArtifacts reads model.json plus shards from store and reconstructs
// the graph with its weights — the loader behind tf.loadModel(url).
func LoadArtifacts(store Store) (*savedmodel.GraphDef, error) {
	modelData, err := store.Read("model.json")
	if err != nil {
		return nil, fmt.Errorf("converter: reading model.json: %w", err)
	}
	var model ModelJSON
	if err := json.Unmarshal(modelData, &model); err != nil {
		return nil, fmt.Errorf("converter: parsing model.json: %w", err)
	}
	g, err := savedmodel.UnmarshalTopology(model.ModelTopology)
	if err != nil {
		return nil, err
	}
	weights, err := loadWeights(store, model.WeightsManifest)
	if err != nil {
		return nil, err
	}
	for i := range weights {
		g.Weights[weights[i].Name] = &weights[i]
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
