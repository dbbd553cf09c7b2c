package tf

import "repro/internal/serving"

// Serving re-exports: the model-serving subsystem (registry, dynamic
// micro-batcher, KServe-V1-style HTTP API). See internal/serving and
// cmd/tfjs-serve.
type (
	// ServingRegistry holds the named models a server exposes.
	ServingRegistry = serving.Registry
	// ServingServer is the HTTP front-end over a registry.
	ServingServer = serving.Server
	// ServedModel is one registry entry: scheduler, metrics, lifecycle.
	ServedModel = serving.Model
	// ServingConfig tunes the micro-batcher and scheduler.
	ServingConfig = serving.Config
	// ServingModelOptions selects a backend and batching config per model.
	ServingModelOptions = serving.ModelOptions
	// ServingInstance is one JSON-shaped example (values + shape).
	ServingInstance = serving.Instance
	// ServingShedError is returned when a model's bounded queue rejects a
	// request; it carries a Retry-After hint.
	ServingShedError = serving.ShedError
)

// NewServingRegistry returns an empty model registry.
func NewServingRegistry() *ServingRegistry { return serving.NewRegistry() }

// NewServingServer wraps a registry in the KServe-V1-style HTTP API.
func NewServingServer(reg *ServingRegistry) *ServingServer { return serving.NewServer(reg) }
