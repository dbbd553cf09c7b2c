// Package native implements the "node" backend: the stand-in for the
// Node.js backend of Section 4.2, which binds to the TensorFlow C library
// through N-API and inherits native hardware acceleration (AVX on CPU,
// CUDA on GPU).
//
// There is no TensorFlow C library in this reproduction (see DESIGN.md);
// instead the backend plays the same architectural role: it shares the
// user-facing API with every other backend while delegating the hot kernels
// to optimized code — here AVX2 vector cores under the GEMM, convolution,
// pooling and epilogue inner loops (internal/vec; pure Go where there is no
// AVX2) and loops sharded across a persistent worker pool, standing in for
// the vendored BLAS/Eigen kernels. That covers training as well as
// inference: the Node backend exists so that model.fit runs on native
// kernels, and the convolution and max-pool gradients (grad.go) run on the
// same cores, bit-equal to the reference kernels. Everything not overridden falls back
// to the reference kernels through kernels.Dispatch, exactly like the real
// Node backend falls back for ops the C API does not expose.
package native

import (
	"runtime"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/kernels"
)

// DefaultWorkers is the initial worker count: GOMAXPROCS, the bound Go
// already lets an operator set on how many chunks can run at once.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Backend is the optimized host backend. It embeds the plain CPU storage
// plane; only kernel execution differs.
type Backend struct {
	*cpu.Backend
	workers atomic.Int64
	// stepHint is the per-plan-step hint: static flops plus the step's
	// rolling measured-cost account. Published by the graph executor with
	// one atomic store per step; parallelFor reads it to pick the grain
	// source and to feed per-chunk timings back into the account.
	stepHint atomic.Pointer[exec.StepHint]
	table    map[string]kernels.OverrideKernel

	// scratchF32 recycles kernel-internal temporaries (FusedBatchNorm's
	// per-channel scale and shift): a per-backend (and so per-replica)
	// free list, independent of whether the data plane pools; only poison
	// mode is shared.
	scratchF32 *bufpool.Pool
}

// New returns the native backend.
func New() *Backend {
	b := &Backend{
		Backend:    cpu.NewNamed("node"),
		scratchF32: bufpool.New(),
	}
	b.workers.Store(int64(DefaultWorkers()))
	b.EnablePooling(true)
	// Poison defaults on in race-detector builds, so lifetime bugs fail
	// loudly exactly where data races would.
	b.SetPoolPoison(bufpool.RaceEnabled)
	b.initKernels()
	return b
}

// SetPoolPoison toggles poison mode on the data-plane recycler and the
// kernel scratch pool together.
func (b *Backend) SetPoolPoison(on bool) {
	b.Backend.SetPoolPoison(on)
	b.scratchF32.SetPoison(on)
}

// SetWorkers sets the intra-op parallelism budget: how many chunks of one
// kernel may execute concurrently (the caller plus helpers drawn from the
// shared pool). Values < 1 reset to DefaultWorkers.
// Safe to call at any time; results are bit-identical across settings.
func (b *Backend) SetWorkers(n int) {
	if n < 1 {
		n = DefaultWorkers()
	}
	b.workers.Store(int64(n))
}

// Workers reports the current intra-op worker budget.
func (b *Backend) Workers() int { return int(b.workers.Load()) }

// ApplyExecConfig implements exec.Configurable: the one entry point
// through which tf.ConfigureExec, graphmodel options and serving model
// options reach the backend.
// Only explicitly-set fields act: Workers == 0 means "leave the backend as
// configured" (a zero exec.Config is a no-op), so loading a model with
// default options never stomps a prior ConfigureExec. Pass a negative
// worker count to reset to the backend default.
func (b *Backend) ApplyExecConfig(c exec.Config) {
	if c.Workers != 0 {
		b.SetWorkers(c.Workers)
	}
	if c.PoolPoison != nil {
		b.SetPoolPoison(*c.PoolPoison)
	}
}

// SetStepHint implements exec.StepHintSetter: the graph executor
// publishes the compiled plan step's hint before running each kernel.
func (b *Backend) SetStepHint(h *exec.StepHint) { b.stepHint.Store(h) }

// costPerElem returns the plan step's flops-per-element hint when one is
// set, else the kernel's own estimate.
func (b *Backend) costPerElem(local int) int {
	if h := b.stepHint.Load(); h != nil && h.Flops > 0 {
		return h.Flops
	}
	if local < 1 {
		return 1
	}
	return local
}

// KernelOverride implements kernels.Overrider.
func (b *Backend) KernelOverride(name string) (kernels.OverrideKernel, bool) {
	k, ok := b.table[name]
	return k, ok
}

// register installs a kernel.
func (b *Backend) register(name string, k kernels.OverrideKernel) { b.table[name] = k }

// Memory folds the scratch recycler into the embedded storage plane's
// snapshot so /metrics sees the full pooled footprint.
func (b *Backend) Memory() kernels.MemoryInfo {
	info := b.Backend.Memory()
	st := b.scratchF32.Stats()
	info.FreeBuffers += st.FreeBuffers
	info.PoolBytes += st.PoolBytes
	info.PoolHits += st.Hits
	info.PoolMisses += st.Misses
	info.RecycledBytes += st.RecycledBytes
	return info
}

var (
	_ kernels.Backend     = (*Backend)(nil)
	_ kernels.Overrider   = (*Backend)(nil)
	_ kernels.Recycler    = (*Backend)(nil)
	_ exec.Configurable   = (*Backend)(nil)
	_ exec.StepHintSetter = (*Backend)(nil)
)
