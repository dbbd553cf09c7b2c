package converter

import (
	"encoding/json"
	"fmt"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// SaveLayersModel writes a Layers-API model to a store in the web format:
// a model.json whose topology is the Keras-style JSON (the "two-way door"
// of Section 3.2) plus sharded weight files — the artifact layout of
// model.save() in TensorFlow.js.
func SaveLayersModel(m *layers.Sequential, store Store, opts Options) (*Result, error) {
	if err := m.Build(); err != nil {
		return nil, err
	}
	shardBytes := opts.ShardBytes
	if shardBytes <= 0 {
		shardBytes = DefaultShardBytes
	}
	if opts.QuantizationBytes != 0 && opts.QuantizationBytes != 1 && opts.QuantizationBytes != 2 {
		return nil, fmt.Errorf("converter: quantization must be 0, 1 or 2 bytes, got %d", opts.QuantizationBytes)
	}

	topo, err := m.ToJSON()
	if err != nil {
		return nil, err
	}

	var specs []WeightSpec
	var payload []byte
	for _, w := range m.GetWeights() {
		spec := WeightSpec{Name: w.Name, Shape: tensor.CopyShape(w.Shape), DType: "float32"}
		data, quant := encodeWeight(w.Values, opts.QuantizationBytes)
		spec.Quantization = quant
		specs = append(specs, spec)
		payload = append(payload, data...)
	}

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

	model := ModelJSON{
		Format:          "layers-model",
		GeneratedBy:     "tfjs-go layers",
		ConvertedBy:     "tfjs-go",
		ModelTopology:   json.RawMessage(topo),
		WeightsManifest: []WeightsGroup{{Paths: paths, Weights: specs}},
	}
	blob, err := json.MarshalIndent(model, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := store.Write("model.json", blob); err != nil {
		return nil, err
	}
	return &Result{
		NodesBefore: len(m.Layers()), NodesAfter: len(m.Layers()),
		WeightBytes: int64(len(payload)), NumShards: numShards,
	}, nil
}

// LoadLayersModel reads a layers-model artifact back into a built model
// with its weights restored — tf.loadModel(url) for Keras-format models
// (Section 5.1).
func LoadLayersModel(store Store) (*layers.Sequential, error) {
	modelData, err := store.Read("model.json")
	if err != nil {
		return nil, fmt.Errorf("converter: reading model.json: %w", err)
	}
	var model ModelJSON
	if err := json.Unmarshal(modelData, &model); err != nil {
		return nil, fmt.Errorf("converter: parsing model.json: %w", err)
	}
	if model.Format != "layers-model" {
		return nil, fmt.Errorf("converter: model.json format %q is not a layers-model", model.Format)
	}
	m, err := layers.FromJSON(model.ModelTopology)
	if err != nil {
		return nil, err
	}
	if err := m.Build(); err != nil {
		return nil, err
	}

	loaded, err := loadWeights(store, model.WeightsManifest)
	if err != nil {
		return nil, err
	}
	weights := make([]layers.NamedWeight, len(loaded))
	for i, w := range loaded {
		weights[i] = layers.NamedWeight{Name: w.Name, Shape: w.Shape, Values: w.Values}
	}
	if err := m.SetWeights(weights); err != nil {
		return nil, err
	}
	return m, nil
}
