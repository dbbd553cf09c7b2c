// Package exec defines the one execution configuration shared by every
// layer that runs models: the tf facade, graphmodel loading, the serving
// registry, and the bench/profile CLIs. It is the only such surface: one
// functional-options struct that flows unchanged from the API edge down
// to the backend. Config holds only decisions some caller makes (see
// TestConfigSurface for the admission rule); anything the code can work
// out from its inputs — which GEMM core suits an operand, whether to
// recycle buffers, whether to verify a graph or a compiled plan — is not
// an option.
// CostModel breaks that rule: it has one value left and stays only
// because bench/fixtures.go still sets it, and files under bench/ change
// only together with the benchmark. There is no verification option: a
// graph the plan cannot run is a load-time error, always.
//
// Nothing flows the other way: a plan hands the backend no per-step hint,
// and the backend reads no clock; each kernel sizes its own parallelism
// grain from its operands.
//
// The package is a leaf: it imports nothing from the repo, so converter,
// graphmodel, native, serving and tf can all depend on it without cycles.
package exec

import "fmt"

// CostModel names where the backend's per-step work estimate comes from
// when it chooses a parallelism grain: static flop counts derived at
// plan-compile time, the one value left. The measured cost model, which
// fed per-chunk wall times back into the grain, was removed; Validate
// says so to a caller that still asks for it.
type CostModel string

// CostModelStatic derives grain from compile-time flops-per-element
// estimates, the default.
const CostModelStatic CostModel = "static"

// Config is the resolved execution configuration. The zero value means
// "all defaults": one worker per GOMAXPROCS, static cost model, graph
// optimization on.
type Config struct {
	// Workers is the intra-op parallelism budget: how many chunks of one
	// kernel's index space may execute concurrently. 0 means "unset":
	// the backend keeps its current setting (GOMAXPROCS unless previously
	// configured). A negative value resets to the backend default.
	// Results are bit-identical across any value — only wall time changes.
	Workers int

	// Optimize gates the load-time graph rewriter. nil means on (the
	// default); the pointer form distinguishes "unset" from "explicitly
	// disabled". The graph verifier has no gate: every load runs it.
	Optimize *bool

	// CostModel names the per-step cost source for grain selection: empty
	// or CostModelStatic, the only one.
	CostModel CostModel
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

// WithCostModel selects the per-step cost model driving the parallelism
// grain (CostModelStatic is the only one).
func WithCostModel(m CostModel) Option {
	return func(c *Config) { c.CostModel = m }
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
	if over.CostModel != "" {
		out.CostModel = over.CostModel
	}
	return out
}

// OptimizeOn reports whether graph optimization is enabled (default true).
func (c Config) OptimizeOn() bool { return c.Optimize == nil || *c.Optimize }

// Validate rejects an unknown cost model early, at the API edge, rather
// than deep inside a kernel dispatch.
func (c Config) Validate() error {
	switch c.CostModel {
	case "", CostModelStatic:
	case "measured":
		return fmt.Errorf("exec: the measured cost model was removed; use %q", CostModelStatic)
	default:
		return fmt.Errorf("exec: unknown cost model %q (want %q)", c.CostModel, CostModelStatic)
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
// did. Backends without the hook ignore execution config: cpu's kernels
// are single-threaded, and webgl runs every program over its simulated
// device's own Workers (glsim.Config), fixed when the backend is built.
func Apply(b any, c Config) bool {
	if t, ok := b.(Configurable); ok {
		t.ApplyExecConfig(c)
		return true
	}
	return false
}
