// Package exec defines the one execution configuration shared by every
// layer that runs models: the tf facade, graphmodel loading, the serving
// registry, and the bench/profile CLIs. It is the only such surface: one
// functional-options struct that flows unchanged from the API edge down
// to the backend. Config holds only decisions some caller makes (see
// TestConfigSurface for the admission rule); anything the code can work
// out from its inputs — which GEMM core suits an operand, whether to
// recycle buffers, whether to verify a compiled plan — is not an option.
//
// The package is a leaf: it imports nothing from the repo, so converter,
// graphmodel, native, serving and tf can all depend on it without cycles.
package exec

import "fmt"

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

// Config is the resolved execution configuration. The zero value means
// "all defaults": one worker per GOMAXPROCS, static cost model, graph
// optimization and verification on.
type Config struct {
	// Workers is the intra-op parallelism budget: how many chunks of one
	// kernel's index space may execute concurrently. 0 means "unset":
	// the backend keeps its current setting (GOMAXPROCS unless previously
	// configured). A negative value resets to the backend default.
	// Results are bit-identical across any value — only wall time changes.
	Workers int

	// Optimize and Verify gate the load-time graph rewriter and the
	// static shape/dtype verifier. nil means on (the default); the
	// pointer form distinguishes "unset" from "explicitly disabled".
	Optimize *bool
	Verify   *bool

	// CostModel selects static (flop-estimate) or measured (profiler
	// feedback) per-step cost for grain selection. Empty means static.
	CostModel CostModel

	// PoolPoison scribbles freed buffers with NaN sentinels so a
	// use-after-dispose through the recycler corrupts results loudly.
	// nil means the backend default: on in race-detector builds.
	PoolPoison *bool
}

// Option mutates a Config; the functional-options surface of the API.
type Option func(*Config)

// WithWorkers sets the intra-op worker budget. n < 0 resets to the
// backend default; 0 leaves the backend as configured.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithOptimize toggles load-time graph optimization.
func WithOptimize(on bool) Option {
	return func(c *Config) { c.Optimize = &on }
}

// WithVerify toggles load-time graph verification.
func WithVerify(on bool) Option {
	return func(c *Config) { c.Verify = &on }
}

// WithCostModel selects the per-step cost model driving the parallelism
// grain (CostModelStatic or CostModelMeasured).
func WithCostModel(m CostModel) Option {
	return func(c *Config) { c.CostModel = m }
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
	if over.Optimize != nil {
		out.Optimize = over.Optimize
	}
	if over.Verify != nil {
		out.Verify = over.Verify
	}
	if over.CostModel != "" {
		out.CostModel = over.CostModel
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

// Validate rejects an unknown cost model early, at the API edge, rather
// than deep inside a kernel dispatch.
func (c Config) Validate() error {
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

// StepHint is the per-plan-step cost hint: the compile-time flop
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

// StepHintSetter is implemented by backends that accept per-plan-step
// cost hints: the compiled plan knows each step's arithmetic intensity,
// which the backend folds into its parallelism grain so cheap steps stay
// inline and expensive ones shard. SetStepHint(nil) clears the hint back
// to the per-kernel default.
type StepHintSetter interface {
	SetStepHint(h *StepHint)
}

// HintStep forwards a step's hint to the backend if it listens.
func HintStep(b any, h *StepHint) {
	if s, ok := b.(StepHintSetter); ok {
		s.SetStepHint(h)
	}
}
