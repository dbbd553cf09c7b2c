package serving

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// shapeSignature identifies a kernel dispatch by everything but its batch
// size: name plus operand shapes with the leading dimension blanked. Two
// MobileNets with different input sizes and class counts share no
// signature, so an event's signature says which model's plan produced it
// independently of what its Span claims.
func shapeSignature(ev telemetry.Event) string {
	sig := ev.Name
	for _, shapes := range [][][]int{ev.InputShapes, ev.OutputShapes} {
		sig += "|"
		for _, s := range shapes {
			if len(s) > 0 {
				sig += fmt.Sprint("_", s[1:])
			}
		}
	}
	return sig
}

// TestConcurrentSpanAttribution drives two models concurrently — one on a
// two-replica pool, one unreplicated, so three executors over two engines
// share one hub — and checks that every kernel event says whose it is:
// events from a model's plan carry that model's span and nobody else's,
// no kernel runs outside a span (the runner moves a batch without
// dispatching any), and the per-model kernel counters on /metrics equal executes × the kernels
// one execute dispatches, exactly.
func TestConcurrentSpanAttribution(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	type served struct {
		m          *Model
		img        Instance
		signatures map[string]bool // every signature one execute emits
		perExecute map[string]int  // kernel name → dispatches per execute
	}
	batching := Config{MaxBatchSize: 4, BatchTimeout: 2 * time.Millisecond, QueueSize: 64}
	load := func(name string, size, classes, replicas int) *served {
		m, err := reg.Load(name, buildMobileNetStore(t, size, classes), ModelOptions{
			Backend: "node", Replicas: replicas, Batching: batching,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WaitReady(ctx); err != nil {
			t.Fatal(err)
		}
		img := Instance{Values: make([]float32, size*size*3), Shape: []int{size, size, 3}}
		for i := range img.Values {
			img.Values[i] = float32(i%255) / 255
		}
		return &served{m: m, img: img, signatures: map[string]bool{}, perExecute: map[string]int{}}
	}
	models := map[string]*served{
		"alpha": load("alpha", 96, 10, 2),
		"beta":  load("beta", 64, 7, 1),
	}

	var mu sync.Mutex
	var events []telemetry.Event
	remove := core.Global().Telemetry().Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindKernel || ev.Kind == telemetry.KindSpan {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	}))
	defer remove()

	// Phase 1, one model at a time: learn what one execute of each looks
	// like.
	for name, s := range models {
		if _, err := s.m.Predict(ctx, s.img); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for _, ev := range events {
			if ev.Kind != telemetry.KindKernel {
				continue
			}
			if modelOfSpan(ev.Span) != name {
				t.Fatalf("serial predict of %s emitted %s under span %q", name, ev.Name, ev.Span)
			}
			s.signatures[shapeSignature(ev)] = true
			s.perExecute[ev.Name]++
		}
		events = nil
		mu.Unlock()
	}
	for sig := range models["alpha"].signatures {
		if models["beta"].signatures[sig] {
			t.Fatalf("fixture models share kernel signature %q; the test cannot tell them apart", sig)
		}
	}

	// Phase 2, everything at once, behind the server's own observers.
	api := NewServer(reg)
	defer api.Close()
	const perModel = 24
	var wg sync.WaitGroup
	for _, s := range models {
		for i := 0; i < perModel; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.m.Predict(ctx, s.img); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	remove()

	metrics := buildExposition(reg.Snapshots(), api.Stats(), api.Trace()).RenderOpenMetrics()
	executes := map[string]int{}
	counts := map[string]map[string]int{"alpha": {}, "beta": {}}
	for _, ev := range events {
		if ev.Kind == telemetry.KindSpan {
			executes[modelOfSpan(ev.Name)]++
			continue
		}
		model := modelOfSpan(ev.Span)
		s, ok := models[model]
		if !ok {
			t.Errorf("kernel %s carries unknown span %q", ev.Name, ev.Span)
			continue
		}
		if !s.signatures[shapeSignature(ev)] {
			t.Errorf("span %q on a kernel its model never dispatches: %s", ev.Span, shapeSignature(ev))
		}
		counts[model][ev.Name]++
	}
	for name, s := range models {
		batches := 0
		for _, n := range s.m.metrics.snapshot(0).BatchSizes {
			batches += int(n)
		}
		batches-- // the phase-1 predict
		if executes[name] != batches || batches == 0 {
			t.Errorf("%s: %d span events for %d executed batches", name, executes[name], batches)
		}
		for kernel, per := range s.perExecute {
			if got, want := counts[name][kernel], per*executes[name]; got != want {
				t.Errorf("%s: %d %s events, want %d executes × %d = %d", name, got, kernel, executes[name], per, want)
			}
			// The server's aggregator saw phase 2 only.
			line := fmt.Sprintf("serving_kernel_invocations_total{model=%q,kernel=%q} %d\n", name, kernel, per*executes[name])
			if !strings.Contains(metrics, line) {
				t.Errorf("/metrics is missing %q", strings.TrimSpace(line))
			}
		}
		if len(counts[name]) != len(s.perExecute) {
			t.Errorf("%s: concurrent kernels %v, serial kernels %v", name, counts[name], s.perExecute)
		}
	}
}
