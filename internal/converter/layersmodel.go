package converter

import (
	"encoding/json"

	"repro/internal/layers"
	"repro/internal/savedmodel"
)

// SaveLayersModel writes a Layers-API model to a store in the web format:
// a model.json whose topology is the Keras-style JSON (the "two-way door"
// of Section 3.2) plus sharded weight files — the artifact layout of
// model.save() in TensorFlow.js.
func SaveLayersModel(m *layers.Sequential, store Store, opts Options) (*Result, error) {
	if err := m.Build(); err != nil {
		return nil, err
	}
	topo, err := m.ToJSON()
	if err != nil {
		return nil, err
	}
	var weights []savedmodel.Weight
	for _, w := range m.GetWeights() {
		weights = append(weights, savedmodel.Weight{Name: w.Name, Shape: w.Shape, Values: w.Values})
	}
	res, err := writeArtifact(store, ModelJSON{
		Format:        LayersModel,
		GeneratedBy:   "tfjs-go layers",
		ConvertedBy:   "tfjs-go",
		ModelTopology: json.RawMessage(topo),
	}, weights, opts)
	if err != nil {
		return nil, err
	}
	res.NodesBefore, res.NodesAfter = len(m.Layers()), len(m.Layers())
	return res, nil
}

// LoadLayersModel reads a layers-model artifact back into a built model
// with its weights restored — tf.loadModel(url) for Keras-format models
// (Section 5.1).
func LoadLayersModel(store Store) (*layers.Sequential, error) {
	model, weights, err := readArtifact(store, LayersModel)
	if err != nil {
		return nil, err
	}
	return layersFrom(model.ModelTopology, weights)
}

// layersFrom builds a Layers model from its topology and restores its
// weights, which must be the ones its layers declare
// (Sequential.CheckWeights): one left out would keep its initializer.
func layersFrom(topo json.RawMessage, weights []savedmodel.Weight) (*layers.Sequential, error) {
	m, err := layers.FromJSON(topo)
	if err != nil {
		return nil, err
	}
	named := namedWeights(weights)
	if _, err := m.CheckWeights(named); err != nil {
		return nil, err
	}
	if err := m.SetWeights(named); err != nil {
		m.Dispose()
		return nil, err
	}
	return m, nil
}

// namedWeights is a manifest's weights as a Layers model names them.
func namedWeights(weights []savedmodel.Weight) []layers.NamedWeight {
	named := make([]layers.NamedWeight, len(weights))
	for i, w := range weights {
		named[i] = layers.NamedWeight{Name: w.Name, Shape: w.Shape, Values: w.Values}
	}
	return named
}
