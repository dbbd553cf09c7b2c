package native_test

// Whole-model microbenchmark for the native backend, pinned to one worker
// so it measures kernel quality, not scheduling: single-image MobileNet
// inference on the ladder benchmark shape (alpha=0.25 @96×96), the same
// plan `tfjs-bench ladder` reports with wall-clock. The per-kernel
// benchmarks live in kernel_bench_test.go.
//
//	go test -run xxx -bench . ./internal/native/

import (
	"testing"

	"repro/internal/graphmodel"
	"repro/internal/ops"
)

func BenchmarkMobileNet(b *testing.B) {
	nb := nodeBackend(b)
	nb.SetWorkers(1)
	defer nb.SetWorkers(-1)
	gm, err := graphmodel.New(mobileNetGraph(b, 96))
	if err != nil {
		b.Fatal(err)
	}
	defer gm.Dispose()
	vals := make([]float32, 96*96*3)
	for i := range vals {
		vals[i] = float32(i%251) / 251
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := ops.FromValues(vals, 1, 96, 96, 3)
		y, err := gm.Predict(x)
		if err != nil {
			b.Fatal(err)
		}
		y.DataSync()
		y.Dispose()
		x.Dispose()
	}
}
