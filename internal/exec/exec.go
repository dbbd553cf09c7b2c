// Package exec defines the one execution configuration shared by every
// layer that runs models: the tf facade, graphmodel loading, the serving
// registry, and the bench/profile CLIs. It replaces four overlapping
// surfaces that accreted across PRs (native.SetWorkers/TFJS_NUM_WORKERS,
// tf.Configure(tf.Config{Workers}), graphmodel's WithOptimize/WithVerify
// options, and serving.ModelOptions' Disable* booleans) with a single
// functional-options struct that flows unchanged from the API edge down
// to the backend.
//
// The package is a leaf: it imports nothing from the repo, so converter,
// graphmodel, native, serving and tf can all depend on it without cycles.
package exec

import "fmt"

// GEMMMode selects the matrix-multiply core used by the native backend.
type GEMMMode string

// CostModel selects how the backend estimates per-step work when choosing
// its parallelism grain (and how the serving batcher models execution
// latency): from static flop counts derived at plan-compile time, or from
// the continuous profiler's measured ns/element accounts.
type CostModel string

const (
	// CostModelStatic derives grain from compile-time flops-per-element
	// estimates (the default, and the only behaviour before the profiler).
	CostModelStatic CostModel = "static"
	// CostModelMeasured derives grain from observed ns/element fed back by
	// the continuous profiler. Outputs are bit-identical to static — only
	// chunk boundaries (and therefore wall time) may differ.
	CostModelMeasured CostModel = "measured"
)

const (
	// GEMMPacked is the cache-blocked packed micro-kernel (default).
	// It is adaptive: when sampling shows the lhs sparse enough that the
	// row-streaming loop's zero-skip wins (post-relu activations), the
	// product runs on that loop instead.
	GEMMPacked GEMMMode = "packed"
	// GEMMNaive is the original row-streaming triple loop, kept for A/B
	// benchmarking and as a bit-exact cross-check of the packed core.
	GEMMNaive GEMMMode = "naive"
)

// Config is the resolved execution configuration. The zero value means
// "all defaults": worker count from TFJS_NUM_WORKERS/GOMAXPROCS, packed
// GEMM, f32 compute, graph optimization and verification on.
type Config struct {
	// Workers is the intra-op parallelism budget: how many chunks of one
	// kernel's index space may execute concurrently. 0 means "unset":
	// the backend keeps its current setting (TFJS_NUM_WORKERS, else the
	// host core count, unless previously configured). A negative value
	// resets to the backend default. Results are bit-identical across any
	// value — only wall time changes.
	Workers int

	// GEMM selects the matmul core. Empty means GEMMPacked.
	GEMM GEMMMode

	// QuantizedCompute enables the int8 compute path: when the loaded
	// artifact carries per-channel int8 weight scales, the graph optimizer
	// rewrites FusedConv2D/_FusedMatMul to their quantized forms
	// (int32 accumulation, dequantize at the edge).
	QuantizedCompute bool

	// Optimize and Verify gate the load-time graph rewriter and the
	// static shape/dtype verifier. nil means on (the default); the
	// pointer form distinguishes "unset" from "explicitly disabled".
	Optimize *bool
	Verify   *bool

	// PlanVerify gates the load-time dataflow verification of the
	// compiled plan (internal/planvet): def-before-use,
	// use-after-free across dispose points, dispose-exactly-once, alias
	// acyclicity, and feed/output recycler exclusion. nil means on.
	PlanVerify *bool

	// CostModel selects static (flop-estimate) or measured (profiler
	// feedback) per-step cost for grain selection. Empty means static.
	CostModel CostModel

	// Pooling gates the backend's data-plane buffer recycler (disposed
	// buffers park on size-class free lists for reuse — the host-memory
	// analogue of the WebGL texture recycler). nil means the backend
	// default: on for native (unless TFJS_POOL=off), off for plain cpu.
	// Outputs are bit-identical either way.
	Pooling *bool

	// PoolPoison scribbles freed buffers with NaN sentinels so a
	// use-after-dispose through the recycler corrupts results loudly.
	// nil means the backend default: on in race-detector builds or when
	// TFJS_POOL_POISON is set.
	PoolPoison *bool
}

// Option mutates a Config; the functional-options surface of the API.
type Option func(*Config)

// WithWorkers sets the intra-op worker budget. n < 0 resets to the
// backend default; 0 leaves the backend as configured.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithGEMM selects the matmul core ("packed" or "naive").
func WithGEMM(mode GEMMMode) Option {
	return func(c *Config) { c.GEMM = mode }
}

// WithQuantizedCompute toggles the int8 compute path.
func WithQuantizedCompute(on bool) Option {
	return func(c *Config) { c.QuantizedCompute = on }
}

// WithOptimize toggles load-time graph optimization.
func WithOptimize(on bool) Option {
	return func(c *Config) { c.Optimize = &on }
}

// WithVerify toggles load-time graph verification.
func WithVerify(on bool) Option {
	return func(c *Config) { c.Verify = &on }
}

// WithPlanVerify toggles load-time dataflow verification of the compiled
// plan.
func WithPlanVerify(on bool) Option {
	return func(c *Config) { c.PlanVerify = &on }
}

// WithCostModel selects the per-step cost model driving the parallelism
// grain (CostModelStatic or CostModelMeasured).
func WithCostModel(m CostModel) Option {
	return func(c *Config) { c.CostModel = m }
}

// WithPooling toggles the backend's buffer recycler.
func WithPooling(on bool) Option {
	return func(c *Config) { c.Pooling = &on }
}

// WithPoolPoison toggles NaN-scribbling of freed buffers (debug).
func WithPoolPoison(on bool) Option {
	return func(c *Config) { c.PoolPoison = &on }
}

// Make resolves options into a Config.
func Make(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// Merge layers overrides on top of c: any field explicitly set in the
// override wins; unset fields keep c's value. Used when a per-model
// config refines a process-wide one.
func (c Config) Merge(over Config) Config {
	out := c
	if over.Workers != 0 {
		out.Workers = over.Workers
	}
	if over.GEMM != "" {
		out.GEMM = over.GEMM
	}
	if over.QuantizedCompute {
		out.QuantizedCompute = true
	}
	if over.Optimize != nil {
		out.Optimize = over.Optimize
	}
	if over.Verify != nil {
		out.Verify = over.Verify
	}
	if over.PlanVerify != nil {
		out.PlanVerify = over.PlanVerify
	}
	if over.CostModel != "" {
		out.CostModel = over.CostModel
	}
	if over.Pooling != nil {
		out.Pooling = over.Pooling
	}
	if over.PoolPoison != nil {
		out.PoolPoison = over.PoolPoison
	}
	return out
}

// MeasuredCost reports whether the measured cost model is selected.
func (c Config) MeasuredCost() bool { return c.CostModel == CostModelMeasured }

// OptimizeOn reports whether graph optimization is enabled (default true).
func (c Config) OptimizeOn() bool { return c.Optimize == nil || *c.Optimize }

// VerifyOn reports whether graph verification is enabled (default true).
func (c Config) VerifyOn() bool { return c.Verify == nil || *c.Verify }

// PlanVerifyOn reports whether compiled-plan dataflow verification is
// enabled (default true).
func (c Config) PlanVerifyOn() bool { return c.PlanVerify == nil || *c.PlanVerify }

// Validate rejects unknown GEMM modes early, at the API edge, rather
// than deep inside a kernel dispatch.
func (c Config) Validate() error {
	switch c.GEMM {
	case "", GEMMPacked, GEMMNaive:
	default:
		return fmt.Errorf("exec: unknown GEMM mode %q (want %q or %q)", c.GEMM, GEMMPacked, GEMMNaive)
	}
	switch c.CostModel {
	case "", CostModelStatic, CostModelMeasured:
	default:
		return fmt.Errorf("exec: unknown cost model %q (want %q or %q)", c.CostModel, CostModelStatic, CostModelMeasured)
	}
	return nil
}

// Configurable is implemented by backends that accept an execution
// config. The engine and graphmodel apply configs through this interface
// so they need no compile-time dependency on the native package.
type Configurable interface {
	ApplyExecConfig(Config)
}

// Apply passes c to b if the backend supports it, reporting whether it
// did. Backends without the hook (cpu, webgl) ignore execution config —
// their kernels are single-threaded reference code.
func Apply(b any, c Config) bool {
	if t, ok := b.(Configurable); ok {
		t.ApplyExecConfig(c)
		return true
	}
	return false
}

// StepHinter is implemented by backends that accept per-plan-step cost
// hints: the compiled plan knows each step's arithmetic intensity
// (flops per output element), which the backend folds into its
// parallelism grain so cheap steps stay inline and expensive ones shard.
type StepHinter interface {
	SetStepCost(flopsPerElement int)
}

// HintStepCost forwards a plan step's per-element cost to the backend if
// it listens. A hint of 0 clears back to the per-kernel default.
func HintStepCost(b any, flopsPerElement int) {
	if h, ok := b.(StepHinter); ok {
		h.SetStepCost(flopsPerElement)
	}
}

// CostObserver is a rolling measured-cost account for one plan step: the
// backend feeds it per-chunk (duration, items) observations from inside
// its sharded loops, and reads back the smoothed ns/item when the
// measured cost model drives grain selection. Implemented by
// telemetry.CostAccount; defined here so this package stays a leaf.
// Implementations must be safe for concurrent use and must not block —
// ObserveCost runs on the kernel hot path.
type CostObserver interface {
	// ObserveCost folds one timed run of `items` loop iterations taking
	// `ns` nanoseconds into the account. items <= 0 observations are
	// ignored.
	ObserveCost(ns int64, items int)
	// NSPerItem returns the smoothed measured cost per loop item in
	// nanoseconds, or 0 when nothing has been observed yet.
	NSPerItem() float64
}

// StepHint is the widened per-plan-step cost hint: the compile-time flop
// estimate plus the step's rolling measured account. Immutable after
// construction (the executor pre-allocates one per plan step), so the
// backend can publish it with a single atomic pointer store per step.
type StepHint struct {
	// Flops is the static flops-per-output-element estimate (0 = unknown;
	// the backend falls back to its per-kernel default).
	Flops int
	// Cost is the step's measured-cost account. The backend feeds it
	// whenever profiling is enabled, regardless of Measured. Nil disables
	// collection for this step.
	Cost CostObserver
	// Measured selects the grain source: when true and Cost has
	// observations, grain derives from measured ns/item; otherwise from
	// Flops. Outputs are bit-identical either way.
	Measured bool
}

// StepHintSetter is implemented by backends that accept the widened hint.
// SetStepHint(nil) clears the hint (equivalent to SetStepCost(0)).
type StepHintSetter interface {
	SetStepHint(h *StepHint)
}

// HintStep forwards a step's widened hint to the backend. Backends that
// only implement the legacy StepHinter receive the hint's static flops,
// so plans compiled with measured accounts still work against them.
func HintStep(b any, h *StepHint) {
	if s, ok := b.(StepHintSetter); ok {
		s.SetStepHint(h)
		return
	}
	if h == nil {
		HintStepCost(b, 0)
		return
	}
	HintStepCost(b, h.Flops)
}
