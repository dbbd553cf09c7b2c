package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/converter"
	"repro/internal/data"
	"repro/internal/serving"
	"repro/tf"
)

// mobileNetConfig is the one model the three inference workloads share:
// the reference (cpu), the served graph model (node) and the Layers model
// (webgl) are all built from it, so Seed fixes the same weights in each.
var mobileNetConfig = tf.MobileNetConfig{
	Alpha: 0.25, InputSize: imageSide, NumClasses: numClasses, IncludeTop: true, Seed: 1,
}

// stageTimes records how long each named set-up stage took, in ms.
type stageTimes map[string]float64

func (s stageTimes) time(stage string, fn func() error) error {
	start := time.Now()
	err := fn()
	s[stage] = msSince(start)
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// servingFixture is a live tfjs-serve: the registry, model options, HTTP
// server and observers are built the way cmd/tfjs-serve's main builds them
// with every flag at its default, behind a real loopback listener.
type servingFixture struct {
	store *converter.MemStore
	reg   *serving.Registry
	model *serving.Model
	api   *serving.Server
	srv   *http.Server
	done  chan struct{}
	url   string
}

func newServingFixture(stages stageTimes) (*servingFixture, error) {
	f := &servingFixture{store: converter.NewMemStore(), done: make(chan struct{})}
	var graph *tf.GraphDef
	err := stages.time("models.build_ms", func() error {
		model, err := tf.MobileNetV1(mobileNetConfig)
		if err != nil {
			return err
		}
		defer model.Dispose()
		graph, err = tf.ExportSavedModel(model, false)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("building mobilenet: %w", err)
	}
	err = stages.time("converter.convert_ms", func() error {
		_, err := converter.Convert(graph, f.store, converter.Options{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("converting mobilenet: %w", err)
	}

	f.reg = serving.NewRegistry()
	f.api = serving.NewServer(f.reg)
	err = stages.time("serving.load_ms", func() error {
		// The values of tfjs-serve's -max-batch, -batch-timeout, -queue-size,
		// -workers, -request-timeout, -replicas and -cost-model defaults.
		m, err := f.reg.Load("mobilenet", f.store, serving.ModelOptions{
			Batching: serving.Config{
				MaxBatchSize:   16,
				BatchTimeout:   2 * time.Millisecond,
				QueueSize:      128,
				Workers:        1,
				RequestTimeout: 30 * time.Second,
			},
			Replicas: 1,
			Exec:     []tf.ExecOption{tf.WithCostModel(tf.CostModelStatic)},
		})
		if err != nil {
			return err
		}
		f.model = m
		return m.WaitReady(context.Background())
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("loading mobilenet: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String() + "/v1/models/mobilenet:predict"
	f.srv = &http.Server{Handler: f.api}
	go func() {
		defer close(f.done)
		// Serve returns ErrServerClosed after Shutdown; nothing else to report.
		_ = f.srv.Serve(ln)
	}()
	return f, nil
}

func (f *servingFixture) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		// A timed-out drain still closes the listener; the run is over.
		_ = f.srv.Shutdown(ctx)
		cancel()
		<-f.done
	}
	f.api.Close()
	f.reg.Close()
}

func (f *servingFixture) instance(img []float32) serving.Instance {
	return serving.Instance{Values: img, Shape: []int{imageSide, imageSide, 3}}
}

// webglFixture is the Layers-API MobileNet resident on the webgl backend
// (paper Table 1's WebGL row).
type webglFixture struct {
	model *tf.Sequential
}

func newWebGLFixture(stages stageTimes) (*webglFixture, error) {
	if err := tf.SetBackend("webgl"); err != nil {
		return nil, err
	}
	f := &webglFixture{}
	err := stages.time("models.build_ms", func() error {
		var err error
		f.model, err = tf.MobileNetV1(mobileNetConfig)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("building mobilenet on webgl: %w", err)
	}
	return f, nil
}

// predict runs one image through upload → programs → readback, each stage
// wrapped by span (untraced outside the traced pass).
func (f *webglFixture) predict(img []float32, span func(name string, fn func())) (probs []float32) {
	var x, out *tf.Tensor
	span("webgl.upload", func() { x = tf.TensorOf(img, 1, imageSide, imageSide, 3) })
	defer x.Dispose()
	span("webgl.enqueue", func() { out = f.model.Predict(x) })
	defer out.Dispose()
	span("webgl.readback", func() { probs = out.DataSync() })
	return probs
}

// untraced runs a stage without recording a span.
func untraced(_ string, fn func()) { fn() }

func (f *webglFixture) close() {
	if err := tf.SetBackend("webgl"); err == nil {
		f.model.Dispose()
	}
}

// mnistFixture is the examples/mnist convnet, compiled with adam, and the
// seed-generated digits it trains on, on the node backend.
type mnistFixture struct {
	model   *tf.Sequential
	train   *data.Digits
	heldOut *data.Digits
	// step is the first batch of the training set, the one-step replay input.
	stepX, stepY *tf.Tensor
	// epoch counts Fit calls; it varies the shuffle order between epochs.
	epoch     int64
	firstLoss float64
	lastLoss  float64
}

func newMNISTFixture(in *inputs, stages stageTimes) (*mnistFixture, error) {
	if err := tf.SetBackend("node"); err != nil {
		return nil, err
	}
	f := &mnistFixture{}
	f.train, f.heldOut = in.digits()
	f.stepX = tf.Slice(f.train.Images, []int{0, 0, 0, 0}, []int{digitBatch, 16, 16, 1})
	f.stepY = tf.Slice(f.train.Labels, []int{0, 0}, []int{digitBatch, 10})
	if err := stages.time("models.build_ms", f.reset); err != nil {
		f.close()
		return nil, fmt.Errorf("building mnist convnet: %w", err)
	}
	return f, nil
}

// reset replaces the model with a freshly initialised and compiled one (the
// layer seed fixes the same initial weights every time). Training changes
// the weights and with them how sparse the activations are, which the
// native kernels exploit, so an epoch gets cheaper as a run goes on; a run
// resets between rounds to make every round the same work.
func (f *mnistFixture) reset() error {
	if f.model != nil {
		f.model.Dispose()
	}
	f.epoch = 0
	tf.SetLayerSeed(12)
	m := tf.NewSequential("mnist_convnet")
	m.Add(tf.NewConv2DLayer(tf.Conv2DConfig{
		Filters: 8, KernelSize: []int{3, 3}, Padding: "same", Activation: "relu",
		InputShape: []int{16, 16, 1},
	}))
	m.Add(tf.NewMaxPooling2D(tf.Pool2DConfig{}))
	m.Add(tf.NewConv2DLayer(tf.Conv2DConfig{
		Filters: 16, KernelSize: []int{3, 3}, Padding: "same", Activation: "relu",
	}))
	m.Add(tf.NewMaxPooling2D(tf.Pool2DConfig{}))
	m.Add(tf.NewFlatten())
	m.Add(tf.NewDropout(0.25))
	m.Add(tf.NewDense(tf.DenseConfig{Units: 10, Activation: "softmax"}))
	f.model = m
	return m.Compile(tf.CompileConfig{
		Optimizer: "adam", Loss: "categoricalCrossentropy",
		LearningRate: 0.01, Metrics: []string{"accuracy"},
	})
}

// fit runs one epoch over x, y and returns its mean loss.
func (f *mnistFixture) fit(x, y *tf.Tensor, shuffleSeed int64) (float64, error) {
	f.epoch++
	hist, err := f.model.Fit(x, y, tf.FitConfig{Epochs: 1, BatchSize: digitBatch, Seed: shuffleSeed + f.epoch})
	if err != nil {
		return 0, err
	}
	loss := hist.Logs["loss"][0]
	if f.epoch == 1 {
		f.firstLoss = loss
	}
	f.lastLoss = loss
	return loss, nil
}

func (f *mnistFixture) close() {
	if err := tf.SetBackend("node"); err != nil {
		return
	}
	if f.model != nil {
		f.model.Dispose()
	}
	f.stepX.Dispose()
	f.stepY.Dispose()
	f.train.Dispose()
	f.heldOut.Dispose()
}
