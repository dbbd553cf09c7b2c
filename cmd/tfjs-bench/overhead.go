package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/converter"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/tf"
)

// overheadPairs is the number of on/off round pairs the gate compares.
const overheadPairs = 10

// overheadExperiment measures what a served process pays for telemetry:
// serving throughput with everything on — profiling enabled and exactly
// the observers serving.NewServer registers, obtained from NewServer
// itself — versus everything off — no observer on the hub, profiling
// disabled. The arms alternate within overheadPairs pairs (on first in
// even pairs, off first in odd ones) so drift hits both equally; each
// pair yields one relative QPS loss, and the run exits nonzero when the
// median loss exceeds budgetPct — the CI gate behind the "always on, low
// overhead" claim.
func overheadExperiment(alpha float64, size, total int, budgetPct float64, costModel, outPath string) {
	fmt.Printf("\n=== Telemetry overhead: QPS observed + profiling vs hub inactive + profiling off (budget %.1f%%) ===\n", budgetPct)
	fmt.Printf("MobileNet v1 alpha=%.2f input=%dx%dx3, native backend, %d CPU core(s), %d requests per round, %d pairs, cost-model=%s\n\n",
		alpha, size, size, runtime.NumCPU(), total, overheadPairs, costModel)

	store := converter.NewMemStore()
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: alpha, InputSize: size, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := tf.ExportSavedModel(model, false)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tf.Convert(g, store, tf.ConvertOptions{}); err != nil {
		log.Fatal(err)
	}
	model.Dispose()

	reg := serving.NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mobilenet", store, serving.ModelOptions{
		Backend: "node",
		Exec:    []tf.ExecOption{tf.WithCostModel(tf.CostModel(costModel))},
		Batching: serving.Config{
			MaxBatchSize: 16,
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

	defer telemetry.EnableProfiling(true) // restore the default on exit
	var measured, samples, sampledNS int64
	round := func(on bool) float64 {
		telemetry.EnableProfiling(on)
		if on {
			api := serving.NewServer(reg)
			defer func() {
				api.Close()
				e, s, ns := api.Stats().SelfCost()
				measured, samples, sampledNS = measured+e, samples+s, sampledNS+ns
			}()
		}
		return serveThroughput(ctx, m, inst, total)
	}
	round(true) // warm-up: pool fill, cost accounts, observer maps

	var onQPS, offQPS, lossPct []float64
	fmt.Printf("%-6s %10s %10s %10s\n", "Pair", "QPS on", "QPS off", "loss %")
	for pair := 0; pair < overheadPairs; pair++ {
		var on, off float64
		if pair%2 == 0 {
			on, off = round(true), round(false)
		} else {
			off, on = round(false), round(true)
		}
		loss := (off - on) / off * 100
		onQPS, offQPS, lossPct = append(onQPS, on), append(offQPS, off), append(lossPct, loss)
		fmt.Printf("%-6d %10.1f %10.1f %10.2f\n", pair+1, on, off, loss)
	}

	onQ, offQ, lossQ := quartiles(onQPS), quartiles(offQPS), quartiles(lossPct)
	fmt.Printf("\nQPS on : median %.1f, quartiles %.1f–%.1f\n", onQ[1], onQ[0], onQ[2])
	fmt.Printf("QPS off: median %.1f, quartiles %.1f–%.1f\n", offQ[1], offQ[0], offQ[2])
	fmt.Printf("overhead: median %.2f%% of throughput, quartiles %.2f–%.2f (IQR %.2f), budget %.1f%%\n",
		lossQ[1], lossQ[0], lossQ[2], lossQ[2]-lossQ[0], budgetPct)
	perEvent := int64(0)
	if samples > 0 {
		perEvent = sampledNS / samples
	}
	fmt.Printf("stats aggregator measured %d kernel events; sampled observe cost %d ns/event\n", measured, perEvent)

	if outPath != "" {
		bench := newBenchResult("overhead", alpha, size, total, overheadClients)
		bench.Modes = map[string]ModeResult{
			"telemetry_on":  {QPS: onQ[1]},
			"telemetry_off": {QPS: offQ[1]},
		}
		if err := bench.writeJSON(outPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote results to %s\n", outPath)
	}

	if lossQ[1] > budgetPct {
		fmt.Printf("\ntelemetry overhead gate FAILED: %.2f%% > %.1f%% budget\n", lossQ[1], budgetPct)
		os.Exit(1)
	}
	fmt.Printf("telemetry overhead gate passed: %.2f%% ≤ %.1f%%\n", max(lossQ[1], 0), budgetPct)
}

// overheadClients is the closed-loop client count of the gate's load.
const overheadClients = 32

// serveThroughput drives total single-image predicts through the model
// from overheadClients concurrent clients (micro-batching up to the
// model's MaxBatchSize) and returns the achieved QPS.
func serveThroughput(ctx context.Context, m *serving.Model, inst serving.Instance, total int) float64 {
	var wg sync.WaitGroup
	work := make(chan struct{}, total) // sized to the number of sends
	for i := 0; i < total; i++ {
		work <- struct{}{}
	}
	close(work)
	start := time.Now()
	for c := 0; c < overheadClients; c++ {
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

// quartiles returns the lower quartile, median and upper quartile of xs
// (nearest-rank on the sorted samples; the median of an even count is the
// mean of the middle two).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return [3]float64{}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return [3]float64{s[n/4], med, s[(3*n-1)/4]}
}
