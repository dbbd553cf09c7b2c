package native_test

// Whole-model microbenchmarks for the native backend, pinned to one worker
// so they measure kernel quality, not scheduling: MobileNet inference at
// the serving benchmark's shape (alpha=0.25 @96×96), one image and — the
// batched plan execute a served batch runs (serve_batch's
// graphmodel.execute_b16) — sixteen. The per-kernel benchmarks live in
// kernel_bench_test.go.
//
//	go test -run xxx -bench . ./internal/native/

import (
	"testing"

	"repro/internal/graphmodel"
	"repro/internal/ops"
)

func BenchmarkMobileNet(b *testing.B)        { benchMobileNet(b, 1) }
func BenchmarkMobileNetBatch16(b *testing.B) { benchMobileNet(b, 16) }

func benchMobileNet(b *testing.B, batch int) {
	nb := nodeBackend(b)
	nb.SetWorkers(1)
	defer nb.SetWorkers(-1)
	gm, err := graphmodel.New(mobileNetGraph(b, 96))
	if err != nil {
		b.Fatal(err)
	}
	defer gm.Dispose()
	vals := make([]float32, batch*96*96*3)
	for i := range vals {
		vals[i] = float32(i%251) / 251
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := ops.FromValues(vals, batch, 96, 96, 3)
		y, err := gm.Predict(x)
		if err != nil {
			b.Fatal(err)
		}
		y.DataSync()
		y.Dispose()
		x.Dispose()
	}
}
