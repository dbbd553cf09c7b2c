package tf_test

import (
	"math"
	"strings"
	"testing"

	"repro/tf"
)

// The engine's observation and safety tools around a converted model: the
// graph executor dispatches kernels without tensor handles, so each tool has
// to see (or refuse) that execution for what it is.

// loadSmallMobileNet converts a MobileNet through the §5.1 pipeline and
// loads it on the node backend.
func loadSmallMobileNet(t *testing.T) (*tf.GraphModel, *tf.Tensor) {
	t.Helper()
	if err := tf.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tf.SetBackend("cpu") })
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: 0.25, InputSize: 32, NumClasses: 10, IncludeTop: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	graph, err := tf.ExportSavedModel(model, false)
	if err != nil {
		t.Fatal(err)
	}
	store := tf.NewMemStore()
	if _, err := tf.Convert(graph, store, tf.ConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	gm, err := tf.LoadGraphModel(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gm.Dispose)
	vals := make([]float32, 32*32*3)
	for i := range vals {
		vals[i] = float32(i%97) / 97
	}
	x := tf.Tensor4D(vals, 1, 32, 32, 3)
	t.Cleanup(x.Dispose)
	return gm, x
}

func predictCopy(t *testing.T, gm *tf.GraphModel, x *tf.Tensor) []float32 {
	t.Helper()
	y, err := gm.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Dispose()
	return append([]float32(nil), y.DataSync()...)
}

// TestProfileSeesGraphModelKernels: tf.Profile around a graph-model Predict
// returns the kernels the plan dispatched and the one tensor it handed back.
func TestProfileSeesGraphModelKernels(t *testing.T) {
	gm, x := loadSmallMobileNet(t)
	var y *tf.Tensor
	info := tf.Profile(func() {
		var err error
		if y, err = gm.Predict(x); err != nil {
			t.Fatal(err)
		}
	})
	defer y.Dispose()
	if len(info.Kernels) != 30 {
		t.Fatalf("profile recorded %d kernels for one MobileNet predict, want 30", len(info.Kernels))
	}
	want := []string{"FusedConv2D", "FusedDepthwiseConv2dNative", "Mean", "Softmax", "_FusedMatMul"}
	if got := info.KernelNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("profiled kernel names %v, want %v", got, want)
	}
	if info.NewTensors != 1 || info.NewBytes != int64(y.Bytes()) {
		t.Errorf("profile: %d new tensors, %d new bytes; want the output alone (%d bytes)", info.NewTensors, info.NewBytes, y.Bytes())
	}
	if info.PeakBytes <= tf.Memory().NumBytes {
		t.Errorf("profile peak %d bytes does not include the plan's intermediates (engine holds %d)", info.PeakBytes, tf.Memory().NumBytes)
	}
}

// TestGraphModelRefusesGradientScope: a converted model is inference-only;
// executing it under tf.Grad is an error that names the model, not a
// silently untaped result, and leaves nothing behind.
func TestGraphModelRefusesGradientScope(t *testing.T) {
	gm, x := loadSmallMobileNet(t)
	gm.SetName("mnet")
	before := tf.Memory().NumTensors
	var predictErr error
	value, grad := tf.Grad(func() *tf.Tensor {
		y, err := gm.Predict(x)
		if predictErr = err; err == nil {
			return tf.Sum(y, nil, false)
		}
		return tf.Sum(x, nil, false)
	}, x)
	value.Dispose()
	grad.Dispose()
	if predictErr == nil || !strings.Contains(predictErr.Error(), "mnet") || !strings.Contains(predictErr.Error(), "gradient") {
		t.Fatalf("Predict under tf.Grad: %v, want an error naming the model and the gradient scope", predictErr)
	}
	if after := tf.Memory().NumTensors; after != before {
		t.Errorf("refused execute leaked tensors: %d -> %d", before, after)
	}
	// Outside the scope the model executes as before.
	predictCopy(t, gm, x)
}

// TestLeakCheckAroundGraphModelPredict: the lifetime tracker sees a predict
// as what it is — one output handle, disposed by the caller — and tracking
// changes no output bit.
func TestLeakCheckAroundGraphModelPredict(t *testing.T) {
	gm, x := loadSmallMobileNet(t)
	untracked := predictCopy(t, gm, x)
	var tracked []float32
	rep, err := tf.LeakCheck(func() { tracked = predictCopy(t, gm, x) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveTensors != 0 || rep.LiveBytes != 0 {
		t.Errorf("leak check around one predict reports leaks:\n%s", rep)
	}
	if rep.Allocs != 1 || rep.Disposes != 1 {
		t.Errorf("tracker saw %d allocs / %d disposes, want the output handle alone", rep.Allocs, rep.Disposes)
	}
	for i := range untracked {
		if math.Float32bits(tracked[i]) != math.Float32bits(untracked[i]) {
			t.Fatalf("output[%d] tracked=%g untracked=%g: tracking changed the result", i, tracked[i], untracked[i])
		}
	}
}

// TestEmptyGraphArtifactDoesNotLoad: a graph-model artifact whose topology
// is empty — no nodes, no inputs, no outputs — is a load-time error naming
// the missing output. It used to load as a model that computes nothing.
func TestEmptyGraphArtifactDoesNotLoad(t *testing.T) {
	store := tf.NewMemStore()
	if err := store.Write("model.json", []byte(`{"format": "graph-model", "modelTopology": {}, "weightsManifest": []}`)); err != nil {
		t.Fatal(err)
	}
	gm, err := tf.LoadGraphModel(store)
	if err == nil {
		gm.Dispose()
		t.Fatal("an empty graph-model artifact loaded")
	}
	if !strings.Contains(err.Error(), "no output") {
		t.Errorf("load error %q does not name the missing output", err)
	}
}
