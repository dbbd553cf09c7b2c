package tf

import (
	"repro/internal/exec"
	"repro/internal/graphmodel"
)

// This file is the execution-configuration surface: one functional-options
// API, four options (workers, optimize, cost model, pool poison).
// The same ExecOption values work everywhere execution is configured:
//
//	tf.ConfigureExec(tf.WithWorkers(4))                 // process-wide
//	tf.LoadGraphModel(store, tf.WithOptimize(false))    // per model
//	serving.ModelOptions{Exec: []tf.ExecOption{tf.WithPoolPoison(true)}}
//
// The cost model has one value left, CostModelStatic (the default); asking
// for the removed "measured" one is an error.
//
// An option set at load time applies to that model's engine's backend; an
// option set with ConfigureExec applies to the process's "node" backend
// (live or created later). Backends without the hooks (cpu, webgl
// reference tiers) ignore the backend-level knobs.

// ExecOption is one execution-configuration knob.
type ExecOption = exec.Option

// ExecConfig is the resolved execution configuration.
type ExecConfig = exec.Config

// CostModel names where the parallelism grain's per-element cost comes
// from: the plan's static flop estimates.
type CostModel = exec.CostModel

// CostModelStatic is the cost model: static flop estimates, the default.
const CostModelStatic = exec.CostModelStatic

// WithCostModel selects the chunk-grain cost source (CostModelStatic is
// the only one).
func WithCostModel(m CostModel) ExecOption { return exec.WithCostModel(m) }

// WithWorkers sets the intra-op worker budget — how many chunks of one
// kernel's index space may execute concurrently. Results are bit-identical
// across any worker count; only wall time changes. n < 0 resets to the
// default (GOMAXPROCS); 0 leaves the current setting.
func WithWorkers(n int) ExecOption { return exec.WithWorkers(n) }

// WithOptimize toggles the load-time graph optimizer (fusion, folding,
// pruning; on by default).
func WithOptimize(on bool) ExecOption { return exec.WithOptimize(on) }

// WithPoolPoison toggles poison mode: recycled buffers are scribbled with
// NaN (float32) or sentinel values on free, so use-after-dispose reads
// fail loudly instead of silently seeing stale data. Defaults on in race
// builds.
func WithPoolPoison(on bool) ExecOption { return exec.WithPoolPoison(on) }

// LoadGraphModel loads a converted model from an artifact store —
// tf.loadModel(url) (Section 5.1) — applying the execution options to the
// load and to the model's backend.
func LoadGraphModel(store ArtifactStore, opts ...ExecOption) (*GraphModel, error) {
	return graphmodel.Load(store, graphmodel.WithExecOptions(opts...))
}

// ConfigureExec applies execution options process-wide: backend-level
// knobs (workers, pool poison) take effect on the live "node" backend
// immediately and are remembered for one instantiated later. Returns an
// error for an invalid config (e.g. an unknown cost model).
func ConfigureExec(opts ...ExecOption) error {
	c := exec.Make(opts...)
	if err := c.Validate(); err != nil {
		return err
	}
	nodeMu.Lock()
	defer nodeMu.Unlock()
	pendingExec = pendingExec.Merge(c)
	if nodeBackend != nil {
		nodeBackend.ApplyExecConfig(c)
	}
	return nil
}

// ExecConfigured returns the process-wide execution configuration
// accumulated by ConfigureExec calls.
func ExecConfigured() ExecConfig {
	nodeMu.Lock()
	defer nodeMu.Unlock()
	return pendingExec
}
