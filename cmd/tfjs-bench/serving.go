package main

import (
	"context"
	"log"
	"sync"
	"time"

	"repro/internal/converter"
	"repro/internal/serving"
	"repro/tf"
)

// serveThroughput is the load loop of the profiler-overhead gate: it
// drives total single-image requests through one registry model on the
// native backend from 32 concurrent clients (micro-batching up to
// maxBatch) and returns the achieved QPS. A kernel-stats observer stays
// attached for the run, as one always is behind tfjs-serve, so the gate's
// two arms differ only in the profiler.
func serveThroughput(store converter.Store, size, maxBatch, total int, execOpts []tf.ExecOption) float64 {
	reg := serving.NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mobilenet", store, serving.ModelOptions{
		Backend: "node",
		Exec:    execOpts,
		Batching: serving.Config{
			MaxBatchSize: maxBatch,
			BatchTimeout: 2 * time.Millisecond,
			QueueSize:    4096,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if err := m.WaitReady(ctx); err != nil {
		log.Fatal(err)
	}
	inst := serving.Instance{Values: make([]float32, size*size*3), Shape: []int{size, size, 3}}
	if _, err := m.Predict(ctx, inst); err != nil { // warmup
		log.Fatal(err)
	}
	defer tf.WithTelemetry(tf.NewKernelStats())()

	const clients = 32
	var wg sync.WaitGroup
	work := make(chan struct{}, total) // sized to the number of sends
	for i := 0; i < total; i++ {
		work <- struct{}{}
	}
	close(work)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				if _, err := m.Predict(ctx, inst); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	return float64(total) / time.Since(start).Seconds()
}
