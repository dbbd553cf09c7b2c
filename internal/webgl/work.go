package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
)

// This file holds the terms of a program's declared work that only this
// backend has: what a compiled sampler decodes, which depends on the
// squeeze setting, and the packed matmul's shared A samples, which depend
// on the texel layout. Everything else a program declares is its kernel's
// one cost (kernels.Work, closed forms of shapes): see kernels/work.go.

// device is w as the modelled device charges it.
func device(w kernels.Work) glsim.Work { return glsim.Work{Fetches: w.Fetches, ALU: w.ALU} }

// samplerTerms is the number of index terms the shader compiler emits to
// read an operand of shape inShape from a program whose output has shape
// outShape: with squeezing (§4.1) only the operand's own non-degenerate
// dimensions decode — an output dimension of size 1, or one the operand
// broadcasts along, emits no term — without it every output dimension
// does.
func samplerTerms(inShape, outShape []int, squeeze bool) int {
	if !squeeze {
		return len(outShape)
	}
	terms := 0
	for _, d := range inShape {
		if d != 1 {
			terms++
		}
	}
	return terms
}

// packedMatMulWork is the work of the packed matmul shader, whose texel
// computes four consecutive outputs, from w, the per-value shader's: a
// texel that lies inside one output row fetches A once per k for all its
// columns (the vec4 trick); a texel that straddles a row end falls back to
// the per-value shader.
//
// Which texels straddle repeats every lcm(4, n) values, so one period is
// walked and multiplied, then the tail: the form is evaluated on the
// dispatching goroutine, where an enqueue may not cost a walk of every
// texel (Section 4.1.1).
func packedMatMulWork(w kernels.Work, size, n, k int) kernels.Work {
	if size == 0 {
		return w
	}
	// saved counts the A samples per k that the texels of [lo, hi) share.
	saved := func(lo, hi int) (shared int64) {
		for base := lo; base < hi; base += 4 {
			limit := min(4, size-base)
			if base%n+limit <= n {
				shared += int64(limit - 1)
			}
		}
		return shared
	}
	period := 4 * n
	if n%4 == 0 {
		period = n
	} else if n%2 == 0 {
		period = 2 * n
	}
	full := size / period
	shared := saved(full*period, size)
	if full > 0 {
		shared += int64(full) * saved(0, period)
	}
	w.Fetches -= shared * int64(k)
	return w
}
