package tf_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/telemetry"
	"repro/tf"
)

// TestWebGLTraceIsSchemaValid records one MobileNet α=0.25 @96 predict on
// the webgl backend through a trace recorder and checks the Chrome trace
// it renders against the trace-event schema. The trace must hold what
// makes it worth loading: kernel slices carrying the device's kernel time,
// device fences, and the engine memory counter track.
func TestWebGLTraceIsSchemaValid(t *testing.T) {
	if err := tf.SetBackend("webgl"); err != nil {
		t.Fatal(err)
	}
	defer tf.SetBackend("cpu")
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: 0.25, InputSize: 96, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	x := tf.FromPixelsBatch(data.SyntheticPhoto(96, 42))
	defer x.Dispose()
	// The output is read back asynchronously, as a page awaits data():
	// the device signals that read with a fence.
	predict := func() {
		out := model.Predict(x)
		defer out.Dispose()
		if _, err := out.Data().Await(); err != nil {
			t.Fatal(err)
		}
	}
	predict() // warm-up: uploads and shader compiles

	rec := tf.NewTraceRecorder(0)
	remove := tf.WithTelemetry(rec)
	end := tf.EngineOf().BeginSpan("mobilenet:predict")
	predict()
	end()
	remove()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("webgl trace fails the schema: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var kernels, timed, fences, memory int
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Cat == "kernel":
			kernels++
			if ms, ok := ev.Args["kernel_ms"].(float64); ok && ms > 0 {
				timed++
			}
		case ev.Cat == "fence":
			fences++
		case ev.Phase == "C" && ev.Name == "engine.memory":
			memory++
		}
	}
	if kernels == 0 || timed != kernels {
		t.Errorf("%d kernel events, %d with kernel_ms: want every kernel timed on the device", kernels, timed)
	}
	if fences == 0 {
		t.Error("no device fence in the trace")
	}
	if memory == 0 {
		t.Error("no engine.memory counter in the trace")
	}
}
