package ops

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TestOpErrorTyping asserts the error contract of the ops layer: every
// user-level failure — shape mismatch, unknown kernel, invalid attribute —
// panics with a typed *core.OpError carrying the kernel name and an
// unwrappable cause, so servers (serving.recoverOpError) and callers can
// route them without string matching.
func TestOpErrorTyping(t *testing.T) {
	cases := []struct {
		name       string
		fn         func()
		wantKernel string
		wantCause  string
	}{
		// ops/binary: broadcasting shape mismatches surface from the
		// reference kernels through the engine dispatch.
		{
			name:       "binary add broadcast mismatch",
			fn:         func() { Add(Ones(2, 3), Ones(4, 5)) },
			wantKernel: "Add",
			wantCause:  "cannot broadcast",
		},
		{
			name:       "binary mul broadcast mismatch",
			fn:         func() { Mul(Ones(3, 2), Ones(2, 3)) },
			wantKernel: "Mul",
			wantCause:  "cannot broadcast",
		},
		{
			name:       "binary pow broadcast mismatch",
			fn:         func() { Pow(Ones(5), Ones(4)) },
			wantKernel: "Pow",
			wantCause:  "cannot broadcast",
		},
		// Unknown kernel: nothing registered under the name on any backend.
		{
			name: "unknown kernel",
			fn: func() {
				core.Global().RunKernel("NoSuchKernel", []*tensor.Tensor{Ones(1)}, nil)
			},
			wantKernel: "NoSuchKernel",
			wantCause:  "not registered",
		},
		// ops/matmul: rank validation happens in the op before dispatch.
		{
			name:       "matmul rank mismatch",
			fn:         func() { MatMul(Ones(2, 3, 4), Ones(4, 2), false, false) },
			wantKernel: "MatMul",
			wantCause:  "rank 2",
		},
		{
			// MatMul lowers onto BatchMatMul; the inner-dimension check
			// lives in the reference kernel and names the kernel that ran.
			name:       "matmul inner dimension mismatch",
			fn:         func() { MatMul(Ones(2, 3), Ones(4, 2), false, false) },
			wantKernel: "BatchMatMul",
			wantCause:  "inner dims mismatch",
		},
		{
			name:       "dot rank mismatch",
			fn:         func() { Dot(Ones(2, 2), Ones(2)) },
			wantKernel: "Dot",
			wantCause:  "rank 1",
		},
		// ops/reduce: invalid axis attributes.
		{
			name:       "sum axis out of range",
			fn:         func() { Sum(Ones(2, 2), []int{5}, false) },
			wantKernel: "Sum",
			wantCause:  "out of range",
		},
		{
			name:       "mean negative axis out of range",
			fn:         func() { Mean(Ones(2, 2), []int{-3}, false) },
			wantKernel: "Mean",
			wantCause:  "out of range",
		},
		{
			name:       "argmax axis out of range",
			fn:         func() { ArgMax(Ones(2, 2), 2) },
			wantKernel: "ArgMax",
			wantCause:  "out of range",
		},
		{
			name:       "softmax scalar input",
			fn:         func() { Softmax(Scalar(1)) },
			wantKernel: "Softmax",
			wantCause:  "rank >= 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic, got none")
				}
				opErr, ok := r.(*core.OpError)
				if !ok {
					t.Fatalf("panic value %T (%v), want *core.OpError", r, r)
				}
				if opErr.Kernel != tc.wantKernel {
					t.Errorf("Kernel = %q, want %q", opErr.Kernel, tc.wantKernel)
				}
				cause := errors.Unwrap(opErr)
				if cause == nil {
					t.Fatal("OpError must unwrap to its cause")
				}
				if !strings.Contains(cause.Error(), tc.wantCause) {
					t.Errorf("cause %q does not contain %q", cause, tc.wantCause)
				}
				// The typed value must also travel as an error chain.
				var target *core.OpError
				if !errors.As(error(opErr), &target) {
					t.Error("OpError must satisfy errors.As")
				}
			}()
			core.Global().Tidy("operror", func() []*tensor.Tensor {
				tc.fn()
				return nil
			})
		})
	}
}
