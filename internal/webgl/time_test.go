package webgl_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestTimeIsTheSameObservedAndUnobserved: tf.time() on the webgl backend is
// the difference of two readings of the device's monotonic clock, so it is
// re-entrant. The engine's observed path times every kernel with a nested
// Backend.Time; when Time kept one accumulator that the inner call reset,
// an outer tf.Time under any observer — debug mode, tf.profile, a trace
// recorder — returned the last kernel's time, about 1/40th of a MobileNet
// predict.
func TestTimeIsTheSameObservedAndUnobserved(t *testing.T) {
	setBackend(t, "webgl")
	e := core.Global()
	rng := rand.New(rand.NewSource(11))
	x := ops.FromValues(randT(rng, 1, 12, 12, 3), 1, 12, 12, 3)
	w := ops.FromValues(randT(rng, 3, 3, 3, 8), 3, 3, 3, 8)
	pw := ops.FromValues(randT(rng, 1, 1, 8, 16), 1, 1, 8, 16)
	one := ops.Fill([]int{16}, 1)
	defer func() {
		for _, v := range []*tensor.Tensor{x, w, pw, one} {
			v.Dispose()
		}
	}()
	predict := func() {
		e.Tidy("predict", func() []*tensor.Tensor {
			h := ops.Relu6(ops.Conv2D(x, w, ops.ConvOpts{Strides: []int{2, 2}, Pad: "same"}))
			h = ops.Conv2D(h, pw, ops.ConvOpts{Strides: []int{1, 1}, Pad: "same"})
			h = ops.Relu6(ops.BatchNorm(h, one, one, one, one, 1e-3))
			ops.Softmax(ops.Reshape(h, 36, 16)).DataSync()
			return nil
		})
	}
	ps := func(ms float64) int64 { return int64(math.Round(ms * 1e9)) }
	predict() // first-run setup; fills the texture recycler
	want := e.Time(predict)
	if !want.HasKernelMS || want.KernelMS <= 0 {
		t.Fatalf("unobserved: %+v", want)
	}
	if again := e.Time(predict); ps(again.KernelMS) != ps(want.KernelMS) {
		t.Fatalf("unobserved twice: %d ps then %d ps", ps(want.KernelMS), ps(again.KernelMS))
	}

	check := func(mode string, got kernels.TimeInfo) {
		t.Helper()
		if ps(got.KernelMS) != ps(want.KernelMS) {
			t.Errorf("%s: tf.Time reports %d ps, unobserved %d ps", mode, ps(got.KernelMS), ps(want.KernelMS))
		}
	}

	e.SetDebugMode(true)
	debug := e.Time(predict)
	records := e.DebugKernels()
	e.SetDebugMode(false)
	check("debug mode", debug)
	var sum int64
	for _, k := range records {
		sum += ps(k.KernelMS)
	}
	if len(records) == 0 || sum != ps(want.KernelMS) {
		t.Errorf("debug mode: %d kernel records sum to %d ps, the outer tf.Time says %d ps", len(records), sum, ps(want.KernelMS))
	}

	var profiled kernels.TimeInfo
	profile := e.Profile(func() { profiled = e.Time(predict) })
	check("inside tf.Profile", profiled)
	sum = 0
	for _, k := range profile.Kernels {
		sum += ps(k.KernelMS)
	}
	if sum != ps(want.KernelMS) {
		t.Errorf("tf.Profile: kernel records sum to %d ps, the outer tf.Time says %d ps", sum, ps(want.KernelMS))
	}

	rec := telemetry.NewRecorder(1 << 12)
	remove := e.Telemetry().Register(rec)
	traced := e.Time(predict)
	remove()
	check("trace recorder attached", traced)

	var inner [2]kernels.TimeInfo
	outer := e.Time(func() {
		inner[0] = e.Time(predict)
		inner[1] = e.Time(predict)
	})
	if ps(outer.KernelMS) != ps(inner[0].KernelMS)+ps(inner[1].KernelMS) || ps(inner[0].KernelMS) != ps(want.KernelMS) {
		t.Errorf("nested: outer %d ps, inner %d + %d ps, one predict %d ps", ps(outer.KernelMS), ps(inner[0].KernelMS), ps(inner[1].KernelMS), ps(want.KernelMS))
	}
}
