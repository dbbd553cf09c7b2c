package tf

import (
	"repro/internal/converter"
	"repro/internal/data"
	"repro/internal/graphmodel"
	"repro/internal/models"
	"repro/internal/savedmodel"
)

// This file re-exports the ecosystem-integration surface of Section 5: the
// model converter, the graph-model loader and the models repository.

// GraphDef is the SavedModel stand-in the converter ingests.
type GraphDef = savedmodel.GraphDef

// GraphModel is an executable converted model.
type GraphModel = graphmodel.Model

// ArtifactStore abstracts where converted artifacts live.
type ArtifactStore = converter.Store

// ConvertOptions configures a conversion (quantization, shard size).
type ConvertOptions = converter.Options

// ConvertResult summarizes a conversion.
type ConvertResult = converter.Result

// NewFSStore stores artifacts in a directory.
func NewFSStore(dir string) ArtifactStore { return converter.FSStore{Dir: dir} }

// NewMemStore stores artifacts in memory.
func NewMemStore() *converter.MemStore { return converter.NewMemStore() }

// ExportSavedModel lowers a built Layers model to a GraphDef, optionally
// attaching training-only nodes (which conversion prunes, Section 5.1).
func ExportSavedModel(m *Sequential, addTrainingOps bool) (*GraphDef, error) {
	return savedmodel.FromSequential(m, addTrainingOps)
}

// Convert prunes, shards and optionally quantizes a model into store —
// the tensorflowjs_converter script of Section 5.1.
func Convert(g *GraphDef, store ArtifactStore, opts ConvertOptions) (*ConvertResult, error) {
	return converter.Convert(g, store, opts)
}

// OptimizeStats reports what the load-time graph optimizer did.
type OptimizeStats = graphmodel.OptimizeStats

// ---------------------------------------------------------------------------
// Models repository (Section 5.2)

// Image is the native image object models consume (the HTMLImageElement
// analogue).
type Image = data.Image

// MobileNetConfig selects a MobileNet v1 variant.
type MobileNetConfig = models.MobileNetConfig

// MobileNet is the friendly image classifier from the models repo.
type MobileNet = models.MobileNet

// Classification is one scored label.
type Classification = models.Classification

// PoseNetConfig selects the PoseNet backbone size.
type PoseNetConfig = models.PoseNetConfig

// PoseNet estimates human poses with a tensor-free API (Listing 3).
type PoseNet = models.PoseNet

// Pose, Keypoint and Point are PoseNet's result types.
type (
	Pose     = models.Pose
	Keypoint = models.Keypoint
	Point    = models.Point
)

// NewMobileNet builds a MobileNet classifier with synthetic weights.
func NewMobileNet(cfg MobileNetConfig) (*MobileNet, error) { return models.NewMobileNet(cfg) }

// MobileNetV1 builds the raw Layers-API architecture.
func MobileNetV1(cfg MobileNetConfig) (*Sequential, error) { return models.MobileNetV1(cfg) }

// NewPoseNet builds a PoseNet estimator with synthetic weights.
func NewPoseNet(cfg PoseNetConfig) (*PoseNet, error) { return models.NewPoseNet(cfg) }

// FromPixels converts a native image into a [h, w, c] tensor
// (tf.fromPixels).
func FromPixels(im *Image) *Tensor { return data.FromPixels(im) }

// FromPixelsBatch converts a native image into a [1, h, w, c] tensor.
func FromPixelsBatch(im *Image) *Tensor { return data.FromPixelsBatch(im) }

// SaveLayersModel writes a Layers model to a store as layers-model
// artifacts (model.json + weight shards) — model.save() in the paper's
// API.
func SaveLayersModel(m *Sequential, store ArtifactStore, opts ConvertOptions) (*ConvertResult, error) {
	return converter.SaveLayersModel(m, store, opts)
}

// LoadLayersModel restores a Layers model, with weights, from layers-model
// artifacts — tf.loadModel(url) for Keras-format models (Section 5.1).
func LoadLayersModel(store ArtifactStore) (*Sequential, error) {
	return converter.LoadLayersModel(store)
}

// NewCachingStore wraps a store with a browser-HTTP-cache simulation, the
// mechanism the 4 MB shard files optimize for (Section 5.1).
func NewCachingStore(origin ArtifactStore) *converter.CachingStore {
	return converter.NewCachingStore(origin)
}
