package converter

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/layers"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

// The web format of §5.1 is written by writeArtifact and read by
// readArtifact, and by nothing else: one model.json (its format, the
// model's topology and the weights manifest) plus the weight shards the
// manifest names.

// The two formats a model.json declares.
const (
	// GraphModel is a converted graph (Convert); its topology is a GraphDef.
	GraphModel = "graph-model"
	// LayersModel is a saved Layers model (SaveLayersModel); its topology
	// is the Keras-style JSON of Section 3.2.
	LayersModel = "layers-model"
)

// modelFile is the artifact's manifest, beside its weight shards.
const modelFile = "model.json"

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

// writeArtifact packs weights in order (encodeWeight), splits the packed
// bytes into shards of at most opts.ShardBytes and writes the shards and
// model, its weights manifest filled in, to store.
func writeArtifact(store Store, model ModelJSON, weights []savedmodel.Weight, opts Options) (*Result, error) {
	if opts.QuantizationBytes != 0 && opts.QuantizationBytes != 1 && opts.QuantizationBytes != 2 {
		return nil, fmt.Errorf("converter: quantization must be 0, 1 or 2 bytes, got %d", opts.QuantizationBytes)
	}
	shardBytes := opts.ShardBytes
	if shardBytes <= 0 {
		shardBytes = DefaultShardBytes
	}
	specs := make([]WeightSpec, len(weights))
	var payload []byte
	for i, w := range weights {
		data, quant := encodeWeight(w.Values, opts.QuantizationBytes)
		specs[i] = WeightSpec{Name: w.Name, Shape: tensor.CopyShape(w.Shape), DType: "float32", Quantization: quant}
		payload = append(payload, data...)
	}
	numShards := max(1, (len(payload)+shardBytes-1)/shardBytes)
	paths := make([]string, numShards)
	for i := range paths {
		lo := min(i*shardBytes, len(payload))
		hi := min(lo+shardBytes, len(payload))
		paths[i] = fmt.Sprintf("group1-shard%dof%d.bin", i+1, numShards)
		if err := store.Write(paths[i], payload[lo:hi]); err != nil {
			return nil, err
		}
	}
	model.WeightsManifest = []WeightsGroup{{Paths: paths, Weights: specs}}
	data, err := json.MarshalIndent(model, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := store.Write(modelFile, data); err != nil {
		return nil, err
	}
	return &Result{WeightBytes: int64(len(payload)), NumShards: numShards}, nil
}

// Load reads the model in store, whichever format its model.json declares,
// and returns it as a graph with its format: every loaded model runs as a
// graph. A Layers model is lowered from its topology's layer configs and
// its manifest's weights (savedmodel.FromLayers), which must be the ones
// those layers declare. Nothing is built: a load makes no tensor and takes
// no engine's lock, so it never waits on a model executing there (the
// serving registry loads while it serves).
func Load(store Store) (*savedmodel.GraphDef, string, error) {
	model, weights, err := readArtifact(store, "")
	if err != nil {
		return nil, "", err
	}
	var g *savedmodel.GraphDef
	if model.Format == GraphModel {
		g, err = graphFrom(model.ModelTopology, weights)
		return g, model.Format, err
	}
	m, err := layers.FromJSON(model.ModelTopology)
	if err == nil {
		g, err = savedmodel.FromLayers(m, namedWeights(weights))
	}
	return g, model.Format, err
}

// readArtifact reads model.json, checks that its format is want (either
// known format when want is empty) and decodes the manifest's weights
// (loadWeights). The caller builds the model the format names.
func readArtifact(store Store, want string) (*ModelJSON, []savedmodel.Weight, error) {
	data, err := store.Read(modelFile)
	if err != nil {
		return nil, nil, fmt.Errorf("converter: reading %s: %w", modelFile, err)
	}
	var model ModelJSON
	if err := json.Unmarshal(data, &model); err != nil {
		return nil, nil, fmt.Errorf("converter: parsing %s: %w", modelFile, err)
	}
	switch {
	case want != "" && model.Format != want:
		return nil, nil, fmt.Errorf("converter: %s declares format %q, not %s", modelFile, model.Format, want)
	case model.Format != GraphModel && model.Format != LayersModel:
		return nil, nil, fmt.Errorf("converter: %s declares format %q, neither %s nor %s", modelFile, model.Format, GraphModel, LayersModel)
	}
	weights, err := loadWeights(store, model.WeightsManifest)
	if err != nil {
		return nil, nil, err
	}
	return &model, weights, nil
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
// byte past its last weight is an error too, and so is a name listed
// twice, which would leave one of the two copies unread.
func loadWeights(store Store, groups []WeightsGroup) ([]savedmodel.Weight, error) {
	var weights []savedmodel.Weight
	seen := map[string]bool{}
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
			if seen[spec.Name] {
				return nil, fmt.Errorf("converter: weight %q is listed twice in the manifest", spec.Name)
			}
			seen[spec.Name] = true
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
