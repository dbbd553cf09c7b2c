package native_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graphmodel"
	"repro/internal/models"
	"repro/internal/native"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// These tests are the memory planner's acceptance gates (ISSUE 9): the
// buffer recycler plus the direct-dispatch plan must keep warmed
// steady-state Predict near-zero in heap allocations, and the recycler must
// do its part without perturbing a single output bit at any worker count.

// nodeBackend switches the global engine onto the native backend and
// returns it.
func nodeBackend(t testing.TB) *native.Backend {
	t.Helper()
	e := core.Global()
	if err := e.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	return e.Backend().(*native.Backend)
}

// mobileNetGraph exports a seeded MobileNet as a serving GraphDef.
func mobileNetGraph(t testing.TB, inputSize int) *savedmodel.GraphDef {
	t.Helper()
	model, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: 0.25, InputSize: inputSize, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	g, err := savedmodel.FromSequential(model, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// predictBits runs one warmed Predict and returns a copy of the output.
func predictBits(t testing.TB, gm *graphmodel.Model, x *tensor.Tensor) []float32 {
	t.Helper()
	y, err := gm.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Dispose()
	return append([]float32(nil), y.DataSync()...)
}

// TestSteadyStateAllocsGate is the blocking CI gate for the memory planner:
// after warmup, an unobserved Predict allocates at most 10 objects with the
// recycler on and 40 with it off (7 and 37; 37 and 67 while every kernel
// resolved its call, and built its body's closure, on every execute; 48
// and 79 before that, 51 and 82 when written). Both arms run
// the one plan executor — the recycler only decides whether a kernel's
// output buffer comes from a free list or from make — so the budgets are
// absolute; the observed, served path has its own budget in
// internal/serving (TestServedExecuteAllocBudget).
func TestSteadyStateAllocsGate(t *testing.T) {
	nb := nodeBackend(t)
	nb.SetWorkers(1)
	defer nb.SetWorkers(-1)
	defer nb.EnablePooling(true)

	gm, err := graphmodel.New(mobileNetGraph(t, 96))
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Dispose()
	vals := make([]float32, 96*96*3)
	for i := range vals {
		vals[i] = float32(i%251) / 251
	}
	x := ops.FromValues(vals, 1, 96, 96, 3)
	defer x.Dispose()

	for _, arm := range []struct {
		name   string
		pooled bool
		budget float64
	}{{"unpooled", false, 40}, {"pooled", true, 10}} {
		nb.EnablePooling(arm.pooled)
		predict := func() {
			y, err := gm.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			y.Dispose()
		}
		for i := 0; i < 3; i++ { // warmup: uploads, pool fill, plan caches
			predict()
		}
		allocs := testing.AllocsPerRun(20, predict)
		t.Logf("warmed Predict allocs/op, %s: %.1f (budget %.0f)", arm.name, allocs, arm.budget)
		if allocs > arm.budget {
			t.Errorf("%s Predict allocates %.1f/op, budget %.0f", arm.name, allocs, arm.budget)
		}
	}
}

// TestPooledBitIdentityMatrix checks the planner's correctness invariant:
// with the recycler on, outputs are bitwise identical to the same plan run
// with the recycler off — not merely close — at every worker count, with
// the static cost model. Buffer reuse may never change which values a
// kernel reads or writes.
func TestPooledBitIdentityMatrix(t *testing.T) {
	nb := nodeBackend(t)
	defer nb.SetWorkers(-1)
	defer nb.EnablePooling(true)

	const inputSize = 64
	vals := make([]float32, inputSize*inputSize*3)
	for i := range vals {
		vals[i] = float32(i%113)/113 - 0.4
	}

	t.Run("static", func(t *testing.T) {
		gm, err := graphmodel.New(mobileNetGraph(t, inputSize))
		if err != nil {
			t.Fatal(err)
		}
		defer gm.Dispose()
		x := ops.FromValues(vals, 1, inputSize, inputSize, 3)
		defer x.Dispose()

		for _, workers := range []int{1, 2, 4, 8} {
			nb.SetWorkers(workers)
			// Warm each arm once before the run that is compared.
			nb.EnablePooling(true)
			predictBits(t, gm, x)
			pooled := predictBits(t, gm, x)
			nb.EnablePooling(false)
			predictBits(t, gm, x)
			unpooled := predictBits(t, gm, x)
			if len(pooled) != len(unpooled) {
				t.Fatalf("workers=%d: output sizes differ: %d vs %d", workers, len(pooled), len(unpooled))
			}
			for i := range pooled {
				if math.Float32bits(pooled[i]) != math.Float32bits(unpooled[i]) {
					t.Fatalf("workers=%d: output[%d] pooled=%x unpooled=%x (bitwise drift)",
						workers, i, math.Float32bits(pooled[i]), math.Float32bits(unpooled[i]))
				}
			}
		}
	})
}

// TestVectorScalarBitIdentity is the whole-model form of the vector
// cores' contract (internal/vec): MobileNet α=0.25 @96 run on the AVX2 bodies
// gives, bit for bit, the output of the pure-Go bodies — at batch 1 and
// 16, and at every worker count against the one-worker scalar reference.
func TestVectorScalarBitIdentity(t *testing.T) {
	if restore, forced := vec.ForceScalar(); !forced {
		t.Skip("no AVX2 on this CPU: the Go bodies are the only ones that run")
	} else {
		restore()
	}
	nb := nodeBackend(t)
	defer nb.SetWorkers(-1)
	gm, err := graphmodel.New(mobileNetGraph(t, 96))
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Dispose()

	for _, batch := range []int{1, 16} {
		vals := make([]float32, batch*96*96*3)
		for i := range vals {
			vals[i] = float32(i%257)/257 - 0.3
		}
		x := ops.FromValues(vals, batch, 96, 96, 3)
		defer x.Dispose()

		nb.SetWorkers(1)
		restore, _ := vec.ForceScalar()
		want := predictBits(t, gm, x)
		restore()
		for _, workers := range []int{1, 2, 4, 8} {
			nb.SetWorkers(workers)
			requireBitIdentical(t, fmt.Sprintf("AVX2 vs scalar, batch %d, workers %d", batch, workers),
				predictBits(t, gm, x), want)
		}
	}
}

// TestPoolPoisonScribblesOnDispose: with poison mode on, a disposed
// tensor's backing buffer is NaN-scribbled the moment it parks on the
// free list, so any retained alias reads sentinels instead of silently
// stale values.
func TestPoolPoisonScribblesOnDispose(t *testing.T) {
	nb := nodeBackend(t)
	nb.EnablePooling(true)
	defer nb.SetPoolPoison(nb.PoolPoison())
	nb.SetPoolPoison(true)

	x := ops.FromValues([]float32{1, 2, 3, 4}, 4)
	x.DataSync() // force the upload so the container exists backend-side
	buf := nb.ReadSync(x.DataID)
	if buf[0] != 1 {
		t.Fatalf("backing buffer reads %v before dispose, want 1", buf[0])
	}
	x.Dispose()
	for i, v := range buf {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("buf[%d] = %v after dispose, want NaN poison", i, v)
		}
	}
}
