package train_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/native"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/webgl"
)

func init() {
	core.Global().RegisterBackend("node", func() (kernels.Backend, error) { return native.New(), nil })
	core.Global().RegisterBackend("webgl", func() (kernels.Backend, error) { return webgl.New(webgl.DefaultConfig()), nil })
}

// adamChain is the eager Adam step the two fused kernels replaced, kept as
// their oracle: fourteen ops and five uploaded scalars per variable, each
// op rounding to float32.
func adamChain(x, m, v, g *tensor.Tensor, lr, beta1, beta2, eps float64, step int) (x2, m2, v2 *tensor.Tensor) {
	corr1 := 1 - math.Pow(beta1, float64(step))
	corr2 := 1 - math.Pow(beta2, float64(step))
	m2 = ops.Add(ops.MulScalar(m, float32(beta1)), ops.MulScalar(g, float32(1-beta1)))
	v2 = ops.Add(ops.MulScalar(v, float32(beta2)), ops.MulScalar(ops.Square(g), float32(1-beta2)))
	mHat := ops.DivScalar(m2, float32(corr1))
	vHat := ops.DivScalar(v2, float32(corr2))
	update := ops.Div(ops.MulScalar(mHat, float32(lr)), ops.AddScalar(ops.Sqrt(vHat), float32(eps)))
	return ops.Sub(x, update), m2, v2
}

// adamSpecials are the gradient values the update's edge cases turn on:
// zeros of both signs, denormals, infinities, NaN, and values whose square
// overflows or underflows.
var adamSpecials = []float32{
	0, float32(math.Copysign(0, -1)), 1e-40, -1e-45, math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	3e38, -1.5e30, 2e19, 1e-20, -1e-23,
}

// adamGrad is step t's gradient for an n-value variable: normal values
// with, at a position that moves every step, one of adamSpecials in every
// third slot.
func adamGrad(rng *rand.Rand, n, t int) []float32 {
	g := make([]float32, n)
	for i := range g {
		if (i+t)%3 == 0 {
			g[i] = adamSpecials[(i/3+t)%len(adamSpecials)]
		} else {
			g[i] = float32(rng.NormFloat64()) * 0.1
		}
	}
	return g
}

// sameBits reports the first element where got and want differ by bit
// pattern; two NaNs count as equal whatever their payloads, which follow
// operand order (see internal/vec).
func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return fmt.Errorf("element %d: %g (bits %08x), want %g (bits %08x)", i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	return nil
}

// convnetShapes are the bench convnet's six variables: two 3×3
// convolutions' kernels and biases, and the dense layer's.
var convnetShapes = [][]int{{3, 3, 1, 8}, {8}, {3, 3, 8, 16}, {16}, {256, 10}, {10}}

// chainAdam is Adam as the eager chain, an Optimizer for the benchmark to
// set beside the fused one.
type chainAdam struct {
	step  int
	slots map[*core.Variable][2]*core.Variable
}

func (o *chainAdam) Name() string { return "adam-chain" }

func (o *chainAdam) ApplyGradients(grads []train.VarGrad) {
	o.step++
	e := core.Global()
	e.Tidy("adam-chain", func() []*tensor.Tensor {
		for _, vg := range grads {
			mv, ok := o.slots[vg.Var]
			if !ok {
				for i := range mv {
					zeros := ops.ZerosLike(vg.Grad)
					mv[i] = e.NewVariable(zeros, "", false)
					zeros.Dispose()
				}
				o.slots[vg.Var] = mv
			}
			x, m, v := adamChain(vg.Var.Value(), mv[0].Value(), mv[1].Value(), vg.Grad, 0.01, 0.9, 0.999, 1e-8, o.step)
			mv[0].Assign(m)
			mv[1].Assign(v)
			vg.Var.Assign(x)
		}
		return nil
	})
}

func (o *chainAdam) Dispose() {
	for _, mv := range o.slots {
		mv[0].Dispose()
		mv[1].Dispose()
	}
}

// BenchmarkOptimizerStep times one ApplyGradients of each optimizer over
// the bench convnet's six variables on node — what a training step's tail
// costs, eager or fused — and counts the dispatches it makes; "adam-chain"
// is the eager chain the fused Adam replaced.
//
//	go test -run '^$' -bench OptimizerStep -benchmem -cpu 1 ./internal/train/
func BenchmarkOptimizerStep(b *testing.B) {
	e := core.Global()
	if err := e.SetBackend("node"); err != nil {
		b.Fatal(err)
	}
	defer e.SetBackend("cpu")
	rng := rand.New(rand.NewSource(1))
	var grads []train.VarGrad
	for i, shape := range convnetShapes {
		init := ops.RandNormal(shape, 0, 0.1, rng)
		v := e.NewVariable(init, fmt.Sprintf("v%d", i), true)
		init.Dispose()
		grads = append(grads, train.VarGrad{Var: v, Grad: ops.RandNormal(shape, 0, 0.1, rng)})
		defer v.Dispose()
		defer grads[i].Grad.Dispose()
	}
	for _, opt := range []train.Optimizer{
		train.NewSGD(0.01), train.NewMomentum(0.01, 0.9, false), train.NewRMSProp(0.01, 0.9, 0),
		train.NewAdagrad(0.01), train.NewAdam(0.01, 0, 0, 0), &chainAdam{slots: map[*core.Variable][2]*core.Variable{}},
	} {
		b.Run(opt.Name(), func(b *testing.B) {
			opt.ApplyGradients(grads) // creates the slots
			dispatches := len(e.Profile(func() { opt.ApplyGradients(grads) }).Kernels)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.ApplyGradients(grads)
			}
			b.ReportMetric(float64(dispatches), "dispatches/op")
		})
		opt.Dispose()
	}
}

// TestAdamKernelsMatchTheOpChain: ten Adam steps through AdamMoments and
// ApplyAdam — dispatched directly, and through the optimizer — leave the
// variable and both moments Float32bits-equal to what the deleted fourteen-op
// chain leaves on the reference tier, on cpu, node and webgl (fp32), for
// gradients that take in ±0, denormals, ±Inf, NaN and values whose square
// overflows, on a variable with a vector tail and one large enough that
// node shards it.
func TestAdamKernelsMatchTheOpChain(t *testing.T) {
	e := core.Global()
	defer e.SetBackend("cpu")
	const (
		lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
		steps                 = 10
	)
	for _, shape := range [][]int{{5, 9}, {64, 33}} {
		n := tensor.ShapeSize(shape)
		rng := rand.New(rand.NewSource(int64(n)))
		x0 := make([]float32, n)
		for i := range x0 {
			x0[i] = float32(rng.NormFloat64())
		}
		x0[1], x0[2] = float32(math.Copysign(0, -1)), 1e-40
		grads := make([][]float32, steps)
		for t := range grads {
			grads[t] = adamGrad(rng, n, t)
		}

		// The oracle: the chain on the reference tier, every step's x, m, v.
		if err := e.SetBackend("cpu"); err != nil {
			t.Fatal(err)
		}
		want := make([][3][]float32, steps)
		e.Tidy("chain", func() []*tensor.Tensor {
			x, m, v := ops.FromValues(x0, shape...), ops.Zeros(shape...), ops.Zeros(shape...)
			for step := range steps {
				x, m, v = adamChain(x, m, v, ops.FromValues(grads[step], shape...), lr, beta1, beta2, eps, step+1)
				want[step] = [3][]float32{x.DataSync(), m.DataSync(), v.DataSync()}
			}
			return nil
		})

		for _, backend := range []string{"cpu", "node", "webgl"} {
			if err := e.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			opt := train.NewAdam(lr, beta1, beta2, eps)
			init := ops.FromValues(x0, shape...)
			w := e.NewVariable(init, "w", true)
			init.Dispose()
			e.Tidy("fused", func() []*tensor.Tensor {
				x, mv := ops.FromValues(x0, shape...), ops.Zeros(append([]int{2}, shape...)...)
				for step := range steps {
					g := ops.FromValues(grads[step], shape...)
					mv = e.RunKernel("AdamMoments", []*tensor.Tensor{mv, g}, kernels.Attrs{Beta1: beta1, Beta2: beta2})
					corr := ops.FromValues(kernels.AdamCorrections(beta1, beta2, step+1), 2)
					x = e.RunKernel("ApplyAdam", []*tensor.Tensor{x, mv, corr}, kernels.Attrs{LearningRate: lr, Epsilon: eps})
					opt.ApplyGradients([]train.VarGrad{{Var: w, Grad: g}})
					moments := mv.DataSync()
					for i, got := range [][]float32{x.DataSync(), moments[:n], moments[n:], w.Value().DataSync()} {
						if err := sameBits(got, want[step][i%3]); err != nil {
							t.Errorf("%s, %v, step %d, %s: %v", backend, shape, step+1, []string{"x", "m", "v", "the optimizer's x"}[i], err)
						}
					}
				}
				return nil
			})
			w.Dispose()
			opt.Dispose()
		}
	}
}
