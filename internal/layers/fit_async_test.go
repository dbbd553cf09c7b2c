package layers_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jsenv"
	"repro/internal/layers"
	"repro/internal/ops"
)

// TestFitAsyncKeepsMainThreadResponsive trains on the event loop while
// posting simulated user events; training must complete AND no single
// task may span the training run (the §3.6 responsiveness property). It
// counts rather than times: 4 epochs of 8 batches run as at least 32 loop
// tasks — the loop's tasks less the posted events and onDone — and the
// event each epoch's end posts runs before the next epoch's first batch.
func TestFitAsyncKeepsMainThreadResponsive(t *testing.T) {
	const epochs, batches = 4, 8
	layers.SetSeed(11)
	model := layers.NewSequential("")
	model.Add(layers.NewDense(layers.DenseConfig{Units: 8, Activation: "relu", InputShape: []int{4}}))
	model.Add(layers.NewDense(layers.DenseConfig{Units: 2, Activation: "softmax"}))
	if err := model.Compile(layers.CompileConfig{Optimizer: "adam", Loss: "categoricalCrossentropy", LearningRate: 0.02}); err != nil {
		t.Fatal(err)
	}
	xs := ops.RandNormal([]int{64, 4}, 0, 1, nil)
	defer xs.Dispose()
	labels := make([]float32, 64*2)
	for i := 0; i < 64; i++ {
		labels[i*2+i%2] = 1
	}
	ys := ops.FromValues(labels, 64, 2)
	defer ys.Dispose()

	loop := jsenv.NewLoop()
	defer loop.Stop()

	// Every event task counts itself; the one posted at the end of epoch e
	// records how many epochs had ended when it ran: e+1, if no batch of
	// the next epoch ran first.
	var events, epochsEnded atomic.Int64
	var ranAfter [epochs]atomic.Int64
	cfg := layers.FitConfig{Epochs: epochs, BatchSize: 64 / batches, OnEpochEnd: func(epoch int, _ map[string]float64) {
		epochsEnded.Add(1)
		loop.Post(func() {
			events.Add(1)
			ranAfter[epoch].Store(epochsEnded.Load())
		})
	}}
	fut := model.FitAsync(loop, xs, ys, cfg, func(*layers.History, error) {})
	trainingDone := make(chan struct{})
	var poster sync.WaitGroup
	poster.Add(1)
	go func() {
		defer poster.Done()
		// Post "user events" continuously while training runs.
		for {
			select {
			case <-trainingDone:
				return
			default:
				loop.Post(func() { events.Add(1) })
				time.Sleep(time.Millisecond)
			}
		}
	}()
	hist, err := fut.Await()
	close(trainingDone)
	poster.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if hist.Epochs != epochs || len(hist.Logs["loss"]) != epochs {
		t.Fatalf("history incomplete: %+v", hist)
	}
	// Every task posted so far has run once this one runs, and none after
	// it has: the loop's count is the training's tasks, the events and
	// onDone.
	var stats jsenv.Stats
	loop.PostAndWait(func() { stats = loop.Stats() })
	if steps := stats.TasksRun - events.Load() - 1; steps < epochs*batches {
		t.Errorf("training ran as %d loop tasks (%d tasks, %d events), want one per batch, %d", steps, stats.TasksRun, events.Load(), epochs*batches)
	}
	for e := range ranAfter {
		if got := ranAfter[e].Load(); got != int64(e+1) {
			t.Errorf("the event posted at the end of epoch %d ran after %d epochs had ended, want %d: a batch ran before it", e, got, e+1)
		}
	}
}

// TestFitAsyncMatchesSyncFit: same seed, same data, same batches — the
// async scheduler must produce identical training results, validation
// logs included, and reject the same configs.
func TestFitAsyncMatchesSyncFit(t *testing.T) {
	build := func() *layers.Sequential {
		layers.SetSeed(99)
		m := layers.NewSequential("")
		m.Add(layers.NewDense(layers.DenseConfig{Units: 1, InputShape: []int{1}}))
		if err := m.Compile(layers.CompileConfig{Optimizer: "sgd", Loss: "meanSquaredError", LearningRate: 0.05}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	xs := ops.FromValues([]float32{1, 2, 3, 4}, 4, 1)
	ys := ops.FromValues([]float32{2, 4, 6, 8}, 4, 1)
	defer xs.Dispose()
	defer ys.Dispose()
	loop := jsenv.NewLoop()
	defer loop.Stop()

	for _, c := range []struct {
		name string
		cfg  layers.FitConfig
	}{
		{"all_rows", layers.FitConfig{Epochs: 10, BatchSize: 2, Seed: 5}},
		{"validation_split", layers.FitConfig{Epochs: 10, BatchSize: 2, Seed: 5, ValidationSplit: 0.25}},
	} {
		t.Run(c.name, func(t *testing.T) {
			histSync, err := build().Fit(xs, ys, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			histAsync, err := build().FitAsync(loop, xs, ys, c.cfg, nil).Await()
			if err != nil {
				t.Fatal(err)
			}
			if len(histAsync.Logs) != len(histSync.Logs) {
				t.Fatalf("async logs %v, sync logs %v", histAsync.Logs, histSync.Logs)
			}
			for k, want := range histSync.Logs {
				got := histAsync.Logs[k]
				if len(got) != len(want) {
					t.Fatalf("%s: async has %d epochs, sync %d", k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("epoch %d %s diverged: sync %g vs async %g", i, k, want[i], got[i])
					}
				}
			}
		})
	}

	// A split that leaves no training data is refused by both.
	noTrain := layers.FitConfig{ValidationSplit: 1.0}
	if _, err := build().Fit(xs, ys, noTrain); err == nil {
		t.Fatal("Fit accepted a split with no training data")
	}
	if _, err := build().FitAsync(loop, xs, ys, noTrain, nil).Await(); err == nil {
		t.Fatal("FitAsync accepted a split with no training data")
	}
}

func TestFitAsyncErrorsWithoutCompile(t *testing.T) {
	m := layers.NewSequential("")
	m.Add(layers.NewDense(layers.DenseConfig{Units: 1, InputShape: []int{1}}))
	loop := jsenv.NewLoop()
	defer loop.Stop()
	x := ops.Ones(2, 1)
	defer x.Dispose()
	if _, err := m.FitAsync(loop, x, x, layers.FitConfig{}, nil).Await(); err == nil {
		t.Fatal("uncompiled FitAsync must error")
	}
}
