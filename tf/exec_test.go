package tf_test

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/tf"
)

// TestConfigureExecFlowsToNodeBackend: the unified config surface reaches
// the live node backend, accumulates across calls, and resets on demand.
func TestConfigureExecFlowsToNodeBackend(t *testing.T) {
	if err := tf.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tf.ConfigureExec(tf.WithWorkers(-1), tf.WithCostModel(tf.CostModelStatic)); err != nil {
			t.Fatal(err)
		}
	}()

	if err := tf.ConfigureExec(tf.WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	if got := tf.NumWorkers(); got != 3 {
		t.Fatalf("NumWorkers = %d after ConfigureExec(WithWorkers(3))", got)
	}
	// A later call touching a different knob must not disturb workers.
	if err := tf.ConfigureExec(tf.WithCostModel(tf.CostModelMeasured)); err != nil {
		t.Fatal(err)
	}
	if got := tf.NumWorkers(); got != 3 {
		t.Fatalf("NumWorkers = %d, want 3 preserved across unrelated ConfigureExec", got)
	}
	cfg := tf.ExecConfigured()
	if cfg.Workers != 3 || cfg.CostModel != tf.CostModelMeasured {
		t.Fatalf("accumulated config %+v, want Workers=3 CostModel=measured", cfg)
	}
	// Invalid configs are rejected at the edge and change nothing.
	if err := tf.ConfigureExec(tf.WithCostModel("guessed")); err == nil {
		t.Fatal("unknown cost model must be rejected")
	}
	if got := tf.ExecConfigured(); got.CostModel != tf.CostModelMeasured {
		t.Fatalf("rejected config must not apply, got cost model %q", got.CostModel)
	}
}

// TestQuantizedModelStillPredictsReasonably is the end-to-end gate for the
// converter's 1-byte weight transport encoding (§5.1) through the facade:
// a MobileNet classifier converted with -quantize 1 must be 4× smaller,
// load with tf.LoadGraphModel and rank classes the way the f32 model does.
func TestQuantizedModelStillPredictsReasonably(t *testing.T) {
	if err := tf.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	seq, err := tf.MobileNetV1(models.MobileNetConfig{
		Alpha: 0.25, InputSize: 96, NumClasses: 10, IncludeTop: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tf.ExportSavedModel(seq, false)
	if err != nil {
		t.Fatal(err)
	}

	f32Store := tf.NewMemStore()
	f32Res, err := tf.Convert(g, f32Store, tf.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u8Store := tf.NewMemStore()
	u8Res, err := tf.Convert(g, u8Store, tf.ConvertOptions{QuantizationBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if u8Res.WeightBytes*4 != f32Res.WeightBytes {
		t.Fatalf("uint8 artifact should be exactly 4x smaller: %d vs %d", u8Res.WeightBytes, f32Res.WeightBytes)
	}

	fm, err := tf.LoadGraphModel(f32Store)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Dispose()
	qm, err := tf.LoadGraphModel(u8Store)
	if err != nil {
		t.Fatal(err)
	}
	defer qm.Dispose()

	// A deterministic synthetic image.
	vals := make([]float32, 96*96*3)
	for i := range vals {
		vals[i] = float32((i*31)%255)/255 - 0.5
	}
	predict := func(m *tf.GraphModel) []float32 {
		x := tf.Tensor4D(vals, 1, 96, 96, 3)
		defer x.Dispose()
		out, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Dispose()
		return append([]float32(nil), out.DataSync()...)
	}
	want := predict(fm)
	got := predict(qm)

	argmax := func(v []float32) int {
		best := 0
		for i, x := range v {
			if x > v[best] {
				best = i
			}
		}
		return best
	}
	// Synthetic weights give near-uniform scores, so the top classes can
	// be statistically tied; "still predicts reasonably" means the f32
	// winner stays within noise of the quantized winner, and every class
	// probability survives within the 8-bit error envelope.
	top := argmax(want)
	if gap := got[argmax(got)] - got[top]; float64(gap) > 0.01 {
		t.Fatalf("f32 top-1 class %d fell %g behind uint8 winner %d: %v vs %v",
			top, gap, argmax(got), got, want)
	}
	for i := range want {
		if diff := math.Abs(float64(got[i] - want[i])); diff > 0.05 {
			t.Fatalf("class %d: uint8 %g vs f32 %g (diff %g)", i, got[i], want[i], diff)
		}
	}
}
