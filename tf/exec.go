package tf

import (
	"repro/internal/exec"
	"repro/internal/graphmodel"
)

// This file is the execution-configuration surface: one functional-options
// API that replaces the four knobs that accreted across releases —
// native.SetWorkers/TFJS_NUM_WORKERS, Configure(Config{Workers}),
// WithGraphOptimize/WithGraphVerify, and serving's Disable* booleans. The
// same ExecOption values work everywhere execution is configured:
//
//	tf.ConfigureExec(tf.WithWorkers(4))                 // process-wide
//	tf.LoadGraphModel(store, tf.WithQuantizedCompute(true))
//	serving.ModelOptions{Exec: []tf.ExecOption{tf.WithGEMM(tf.GEMMNaive)}}
//	tfjs-bench -gemm=packed -quant=int8                 // CLI flags
//
// An option set at load time applies to that model's engine's backend; an
// option set with ConfigureExec applies to the process's "node" backend
// (live or created later). Backends without the hooks (cpu, webgl
// reference tiers) ignore the backend-level knobs.

// ExecOption is one execution-configuration knob.
type ExecOption = exec.Option

// ExecConfig is the resolved execution configuration.
type ExecConfig = exec.Config

// GEMMMode selects the native backend's matrix-multiply core.
type GEMMMode = exec.GEMMMode

// GEMM cores: the cache-blocked packed micro-kernel (default; adaptive —
// it row-streams sparse post-relu activations where zero-skip wins) and
// the always-row-streaming naive loop kept for A/B benchmarking.
const (
	GEMMPacked = exec.GEMMPacked
	GEMMNaive  = exec.GEMMNaive
)

// CostModel selects where the parallelism grain's per-element cost comes
// from: the plan's static flop estimates, or the continuous profiler's
// measured ns/element accounts.
type CostModel = exec.CostModel

// Cost models: static flop estimates (default) and measured ns/element
// feedback from the continuous profiler. Results are bit-identical either
// way; only chunking — and therefore wall time — changes.
const (
	CostModelStatic   = exec.CostModelStatic
	CostModelMeasured = exec.CostModelMeasured
)

// WithCostModel selects the chunk-grain cost source (CostModelStatic or
// CostModelMeasured).
func WithCostModel(m CostModel) ExecOption { return exec.WithCostModel(m) }

// WithWorkers sets the intra-op worker budget — how many chunks of one
// kernel's index space may execute concurrently. Results are bit-identical
// across any worker count; only wall time changes. n < 0 resets to the
// default (TFJS_NUM_WORKERS, else the host core count); 0 leaves the
// current setting.
func WithWorkers(n int) ExecOption { return exec.WithWorkers(n) }

// WithGEMM selects the matmul core (GEMMPacked or GEMMNaive).
func WithGEMM(mode GEMMMode) ExecOption { return exec.WithGEMM(mode) }

// WithQuantizedCompute toggles the int8 compute path: when the loaded
// artifact carries per-channel int8 weight scales (converted with
// QuantizationScheme "int8"), the graph optimizer rewrites eligible fused
// nodes onto int8 kernels with int32 accumulation.
func WithQuantizedCompute(on bool) ExecOption { return exec.WithQuantizedCompute(on) }

// WithOptimize toggles the load-time graph optimizer (fusion, folding,
// pruning; on by default).
func WithOptimize(on bool) ExecOption { return exec.WithOptimize(on) }

// WithPlanVerify toggles load-time dataflow verification of the compiled
// execution plan (dispose points, alias roots; enabled by
// default — see internal/planvet).
func WithPlanVerify(on bool) ExecOption { return exec.WithPlanVerify(on) }

// WithVerify toggles load-time static shape/dtype verification of the
// execution graph (on by default).
func WithVerify(on bool) ExecOption { return exec.WithVerify(on) }

// WithPooling toggles the backend's data-plane buffer recycler (on by
// default for the node backend; TFJS_POOL=off flips the default). With
// pooling on, disposed tensor buffers return to per-engine size-class free
// lists and steady-state inference stops allocating; outputs are
// bit-identical either way.
func WithPooling(on bool) ExecOption { return exec.WithPooling(on) }

// WithPoolPoison toggles poison mode: recycled buffers are scribbled with
// NaN (float32) or sentinel values on free, so use-after-dispose reads
// fail loudly instead of silently seeing stale data. Defaults on in race
// builds and via TFJS_POOL_POISON.
func WithPoolPoison(on bool) ExecOption { return exec.WithPoolPoison(on) }

// LoadGraphModel loads a converted model from an artifact store —
// tf.loadModel(url) (Section 5.1) — applying the execution options to the
// load and to the model's backend.
func LoadGraphModel(store ArtifactStore, opts ...ExecOption) (*GraphModel, error) {
	return graphmodel.Load(store, graphmodel.WithExecOptions(opts...))
}

// ConfigureExec applies execution options process-wide: backend-level
// knobs (workers, GEMM core) take effect on the live "node" backend
// immediately and are remembered for one instantiated later. Returns an
// error for invalid combinations (e.g. an unknown GEMM mode).
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
