package vec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// BenchmarkRows times the element-wise rows on both bodies (go: the Go body
// under ForceScalar) at the shapes the gated workloads run them: MobileNet
// α=0.25's 24×24×32 and 6×6×128 maps (predict_webgl's batch norm and ReLU6)
// and the training convnet's 32×16×16×8 activations (train_mnist's Relu,
// Step, bias add and bias gradient). Binaries run the same shape and a
// channel row — the bias — repeated along the map; SumRows sums the map's
// rows into one channel row, as a bias gradient does; Adam's two rows update
// a variable of the map's size. Operands are seeded normal values × 4, so
// they change sign and cross 6 at random as activations do; variances are
// 0.5 + |value|.
func BenchmarkRows(b *testing.B) {
	for _, shape := range [][]int{{24, 24, 32}, {6, 6, 128}, {32, 16, 16, 8}} {
		n, c := 1, shape[len(shape)-1]
		for _, d := range shape {
			n *= d
		}
		rng := rand.New(rand.NewSource(1))
		vals := func(k int) []float32 {
			out := make([]float32, k)
			for i := range out {
				out[i] = float32(rng.NormFloat64()) * 4
			}
			return out
		}
		x, y, dst := vals(n), vals(n), make([]float32, n)
		mean, variance, scale, offset, bias := vals(c), vals(c), vals(c), vals(c), vals(c)
		for i, v := range variance {
			variance[i] = 0.5 + max(v, -v)
		}
		// Adam's slot: x as the first moments, y² as the second.
		slot, moments := append(slices.Clone(x), make([]float32, n)...), make([]float32, 2*n)
		for i, v := range y {
			slot[n+i] = v * v
		}
		rows := []struct {
			name string
			run  func()
		}{
			{"BatchNorm", func() { BatchNorm(dst, x, mean, variance, scale, offset, 1e-3, 0) }},
			{"Relu", func() { Relu(dst, x) }},
			{"Relu6", func() { Relu6(dst, x) }},
			{"Step", func() { Step(dst, x, 0) }},
			{"Add", func() { Binary(Add, dst, x, y) }},
			{"Mul", func() { Binary(Mul, dst, x, y) }},
			{fmt.Sprintf("Add_row%d", c), func() { Binary(Add, dst, x, bias) }},
			{fmt.Sprintf("Mul_row%d", c), func() { Binary(Mul, dst, x, bias) }},
			{"SumRows", func() { SumRows(dst[:c], x, c, n/c) }},
			{"AdamMoments", func() { AdamMoments(moments, slot, y, 0, 0.9, 0.1, 0.999, 0.001) }},
			{"AdamStep", func() { AdamStep(dst, x, slot[:n], slot[n:], 0.01, 0.271, 0.003, 1e-8) }},
		}
		shapeName := strings.Trim(strings.ReplaceAll(fmt.Sprint(shape), " ", "x"), "[]")
		for _, r := range rows {
			for _, body := range []string{"avx2", "go"} {
				b.Run(shapeName+"/"+r.name+"/"+body, func(b *testing.B) {
					b.SetBytes(int64(4 * n))
					bothBodies[body](func() {
						for i := 0; i < b.N; i++ {
							r.run()
						}
					})
				})
			}
		}
	}
}
