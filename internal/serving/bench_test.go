package serving

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// BenchmarkServedPredict is the testing.B entry point for the number the
// telemetry budget is about: one Model.Predict through the scheduler at
// MaxBatchSize 1 (no batch wait, one plan execute per op) with nothing on
// the hub, with an observer that does nothing, and with exactly the set
// NewServer registers. The gap between the first two arms is what event
// construction and hub fan-out cost; the gap to the third is the
// collectors themselves. `tfjs-bench overhead` gates the same comparison
// end to end.
func BenchmarkServedPredict(b *testing.B) {
	store := buildMobileNetStore(b, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mobilenet", store, ModelOptions{
		Backend:  "node",
		Batching: Config{MaxBatchSize: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		b.Fatal(err)
	}
	img := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	for i := range img.Values {
		img.Values[i] = float32(i%255) / 255
	}
	predict := func(b *testing.B) {
		if _, err := m.Predict(ctx, img); err != nil {
			b.Fatal(err)
		}
	}
	arms := []struct {
		name   string
		attach func() (detach func())
	}{
		{"unobserved", func() func() { return func() {} }},
		{"noop_observer", func() func() {
			return core.Global().Telemetry().Register(telemetry.ObserverFunc(func(telemetry.Event) {}))
		}},
		{"server_observers", func() func() { return NewServer(reg).Close }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			detach := arm.attach()
			defer detach()
			for i := 0; i < 5; i++ { // warm-up: pool fill, observer maps
				predict(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				predict(b)
			}
		})
	}
}
