package native

import (
	"math"
	"math/rand"
	"testing"
)

// gemmOperands builds an m×k lhs with the given zero fraction and a dense
// k×n rhs.
func gemmOperands(m, k, n int, sparsity float64) (a, b []float32) {
	rng := rand.New(rand.NewSource(1))
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	for i := range a {
		if rng.Float64() >= sparsity {
			a[i] = float32(rng.NormFloat64())
		}
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	return a, b
}

// runPacked and runNaive call the two GEMM cores directly, bypassing
// gemmAuto's choice, into a zeroed out buffer.
func runPacked(b *Backend, m, n, k int, av, bv, out []float32) {
	pb := b.packB(bv, k, n, n)
	defer b.scratchF32.Put(pb.panels)
	b.gemmPacked(m, n, k, av, k, pb, out, n, gemmEpilogue{})
}

func runNaive(b *Backend, m, n, k int, av, bv, out []float32) {
	for i := range out {
		out[i] = 0 // the row-streaming core accumulates into out
	}
	b.gemmNaive(m, n, k, av, bv, out, gemmEpilogue{})
}

// TestPackedNaiveGEMMParity: the packed core associates the k-loop sums
// differently from the row-streaming core, so the two agree to rounding,
// not to the bit — which is what lets gemmAuto choose between them per
// operand. 2e-5 relative matches the node-vs-cpu parity bound used
// throughout the suite. Odd sizes exercise the zero-padded edge panels.
func TestPackedNaiveGEMMParity(t *testing.T) {
	b := New()
	for _, workers := range []int{1, 4} {
		b.SetWorkers(workers)
		for _, sz := range [][3]int{{37, 29, 23}, {33, 17, 9}, {81, 8, 16}, {1, 256, 1000}} {
			m, k, n := sz[0], sz[1], sz[2]
			for _, sparsity := range []float64{0, 0.5} {
				av, bv := gemmOperands(m, k, n, sparsity)
				want := make([]float32, m*n)
				got := make([]float32, m*n)
				runNaive(b, m, n, k, av, bv, want)
				runPacked(b, m, n, k, av, bv, got)
				for i := range want {
					if math.Abs(float64(got[i]-want[i])) > 2e-5*(1+math.Abs(float64(want[i]))) {
						t.Fatalf("%dx%dx%d sparsity %.1f workers %d: element %d: packed %g vs naive %g",
							m, k, n, sparsity, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The Gemm pairs A/B the packed micro-kernel against the row-streaming
// loop on dense and 50%-sparse operands, one worker, cores called
// directly: the evidence behind gemmSparseBail (packed wins dense and
// big, row-streaming wins once half the lhs is zero).
//
//	go test -run xxx -bench Gemm ./internal/native/
func benchGemm(b *testing.B, packed bool, m, k, n int, sparsity float64) {
	nb := New()
	nb.SetWorkers(1)
	av, bv := gemmOperands(m, k, n, sparsity)
	out := make([]float32, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if packed {
			runPacked(nb, m, n, k, av, bv, out)
		} else {
			runNaive(nb, m, n, k, av, bv, out)
		}
	}
}

// 2304×64 · 64×64 is MobileNet alpha=0.25 @96's largest pointwise shape.
func BenchmarkGemmPackedDense(b *testing.B)  { benchGemm(b, true, 2304, 64, 64, 0) }
func BenchmarkGemmNaiveDense(b *testing.B)   { benchGemm(b, false, 2304, 64, 64, 0) }
func BenchmarkGemmPackedSparse(b *testing.B) { benchGemm(b, true, 2304, 64, 64, 0.5) }
func BenchmarkGemmNaiveSparse(b *testing.B)  { benchGemm(b, false, 2304, 64, 64, 0.5) }
func BenchmarkGemmPackedBig(b *testing.B)    { benchGemm(b, true, 512, 512, 512, 0) }
func BenchmarkGemmNaiveBig(b *testing.B)     { benchGemm(b, false, 512, 512, 512, 0) }
