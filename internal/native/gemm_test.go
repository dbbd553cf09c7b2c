package native_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// withNode activates the node backend and returns the live instance so
// tests can steer its worker count, restoring the default on cleanup.
func withNode(t *testing.T) *native.Backend {
	t.Helper()
	e := core.Global()
	if err := e.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	b, ok := e.Backend().(*native.Backend)
	if !ok {
		t.Fatalf("node backend is %T, want *native.Backend", e.Backend())
	}
	t.Cleanup(func() {
		b.SetWorkers(-1)
		if err := e.SetBackend("cpu"); err != nil {
			t.Fatal(err)
		}
	})
	return b
}

// evalOn runs fn inside a tidy scope on the given backend and copies out
// the result values.
func evalOn(t *testing.T, backend string, fn func() *tensor.Tensor) []float32 {
	t.Helper()
	var out []float32
	core.Global().Tidy(backend, func() []*tensor.Tensor {
		r := fn()
		out = append([]float32(nil), r.DataSync()...)
		return nil
	})
	return out
}

// requireBitIdentical compares two runs bit-for-bit: determinism claims
// are about float bit patterns, not tolerances.
func requireBitIdentical(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: %g (bits %08x) vs %g (bits %08x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// reluVals returns randVals with the negatives zeroed: a post-ReLU
// activation matrix, ~50% zeros, each of which the GEMM core skips.
func reluVals(rng *rand.Rand, n int) []float32 {
	vals := randVals(rng, n)
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	return vals
}

// determinismCases builds kernels whose index spaces exercise every
// parallel path: GEMM rows on dense and post-ReLU (zero-skipping) lhs
// operands, conv rows, the 1×1-pointwise GEMM fast path, depthwise, and
// the split reductions.
// Odd, non-round sizes make chunk boundaries land differently for every
// worker count, which is exactly what must not show in the output bits.
func determinismCases(rng *rand.Rand) map[string]func() *tensor.Tensor {
	av := randVals(rng, 37*29)
	avSparse := reluVals(rng, 37*29)
	pvSparse := reluVals(rng, 1*9*9*8)
	bv := randVals(rng, 29*23)
	fv := randVals(rng, 33*17)
	gv := randVals(rng, 17*9)
	biasN := randVals(rng, 9)
	xv := randVals(rng, 2*13*11*5)
	wv := randVals(rng, 3*3*5*7)
	pv := randVals(rng, 1*9*9*8)
	pw := randVals(rng, 1*1*8*16)
	pbias := randVals(rng, 16)
	dwv := randVals(rng, 3*3*5*2)
	big := randVals(rng, 10007)

	return map[string]func() *tensor.Tensor{
		"matmul": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(av, 37, 29), ops.FromValues(bv, 29, 23), false, false)
		},
		"matmulSparse": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(avSparse, 37, 29), ops.FromValues(bv, 29, 23), false, false)
		},
		"fusedMatMul": func() *tensor.Tensor {
			return ops.FusedMatMul(ops.FromValues(fv, 33, 17), ops.FromValues(gv, 17, 9),
				ops.FromValues(biasN, 9), false, false, "relu")
		},
		"conv2d": func() *tensor.Tensor {
			return ops.Conv2D(ops.FromValues(xv, 2, 13, 11, 5), ops.FromValues(wv, 3, 3, 5, 7),
				ops.ConvOpts{Strides: []int{1, 1}, Pad: "same"})
		},
		"pointwiseFusedConv": func() *tensor.Tensor {
			return ops.FusedConv2D(ops.FromValues(pv, 1, 9, 9, 8), ops.FromValues(pw, 1, 1, 8, 16),
				ops.FromValues(pbias, 16), ops.ConvOpts{Strides: []int{1, 1}, Pad: "valid"}, "relu6")
		},
		"pointwiseFusedConvSparse": func() *tensor.Tensor {
			return ops.FusedConv2D(ops.FromValues(pvSparse, 1, 9, 9, 8), ops.FromValues(pw, 1, 1, 8, 16),
				ops.FromValues(pbias, 16), ops.ConvOpts{Strides: []int{1, 1}, Pad: "valid"}, "relu6")
		},
		"depthwise": func() *tensor.Tensor {
			return ops.DepthwiseConv2D(ops.FromValues(xv, 2, 13, 11, 5), ops.FromValues(dwv, 3, 3, 5, 2),
				ops.ConvOpts{Strides: []int{1, 1}, Pad: "same"})
		},
		"sumAxis": func() *tensor.Tensor {
			return ops.Sum(ops.FromValues(big[:10000], 100, 100), []int{1}, false)
		},
		"meanAll": func() *tensor.Tensor {
			return ops.Mean(ops.FromValues(big, 10007), nil, false)
		},
		"softmax": func() *tensor.Tensor {
			return ops.Softmax(ops.FromValues(big[:9900], 99, 100))
		},
	}
}

// TestBitIdenticalAcrossWorkerCounts is the determinism gate: every
// parallel kernel must produce bit-identical outputs at Workers ∈
// {1, 2, 4, 7}. The per-element accumulation loops (the k
// loop of GEMM, the filter loop of conv, the per-chunk reduction tree) are
// never split across workers, so the only thing a worker count may change
// is wall time.
func TestBitIdenticalAcrossWorkerCounts(t *testing.T) {
	b := withNode(t)
	rng := rand.New(rand.NewSource(77))
	for name, fn := range determinismCases(rng) {
		b.SetWorkers(1)
		want := evalOn(t, "node", fn)
		for _, workers := range []int{2, 4, 7} {
			b.SetWorkers(workers)
			got := evalOn(t, "node", fn)
			requireBitIdentical(t, name, got, want)
		}
	}
}
