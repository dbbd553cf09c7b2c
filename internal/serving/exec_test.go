package serving

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/converter"
	"repro/internal/exec"
	"repro/internal/models"
	"repro/internal/savedmodel"
)

// TestExecOptionsPrecedence: ModelOptions.Exec is the model's whole
// execution config — later options win, unset ones keep their defaults.
func TestExecOptionsPrecedence(t *testing.T) {
	m := newModel("m", ModelOptions{})
	if !m.exec.OptimizeOn() {
		t.Fatal("unset optimize must stay on")
	}

	m = newModel("m", ModelOptions{Exec: []exec.Option{
		exec.WithOptimize(true), exec.WithWorkers(3), exec.WithOptimize(false),
	}})
	if m.exec.OptimizeOn() || m.exec.Workers != 3 {
		t.Fatalf("later option must win: OptimizeOn=%v Workers=%d", m.exec.OptimizeOn(), m.exec.Workers)
	}

	m = newModel("m", ModelOptions{Exec: []exec.Option{
		exec.WithWorkers(2), exec.WithCostModel(exec.CostModelStatic),
	}})
	if m.exec.Workers != 2 || m.exec.CostModel != exec.CostModelStatic {
		t.Fatalf("Exec options lost in resolution: %+v", m.exec)
	}
}

// TestQuantizedReplicatedServing: a 1-byte-quantized artifact served by a
// replica pool with an explicit worker budget. Heavy
// concurrent traffic doubles as the race-detector workout for the
// worker pool + replica pool combination.
func TestQuantizedReplicatedServing(t *testing.T) {
	const classes = 10
	model, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: 0.25, InputSize: 96, NumClasses: classes, IncludeTop: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	g, err := savedmodel.FromSequential(model, false)
	if err != nil {
		t.Fatal(err)
	}
	store := converter.NewMemStore()
	if _, err := converter.Convert(g, store, converter.Options{QuantizationBytes: 1}); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mnet-uint8", store, ModelOptions{
		Backend:  "node",
		Replicas: 3,
		Batching: Config{MaxBatchSize: 4, BatchTimeout: 5 * time.Millisecond, QueueSize: 64},
		Exec:     []exec.Option{exec.WithWorkers(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	img := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	for i := range img.Values {
		img.Values[i] = float32(i%255) / 255
	}
	const requests = 24
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := m.Predict(ctx, img)
			if err != nil {
				errs <- err
				return
			}
			if len(out.Values) != classes {
				errs <- fmt.Errorf("output has %d values, want %d", len(out.Values), classes)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
