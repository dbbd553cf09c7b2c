package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/serving"
	"repro/internal/webgl"
	"repro/tf"
)

// layerSuite is every fixture the traced pass needs to call each layer's
// public functions from outside: the live server (shared by the serve_http
// and serve_batch runners), the same artifacts loaded directly as a
// GraphModel with resident inputs, bare kernels at MobileNet's shapes, the
// webgl Layers model and the mnist convnet.
type layerSuite struct {
	in   *inputs
	refs *references

	http   *httpRunner // owns the serving fixture
	batch  *batchRunner
	webgl  *webglRunner
	train  *trainRunner
	direct *tf.GraphModel

	// Resident node-backend tensors.
	x1                     [poolSize]*tf.Tensor // [1,96,96,3] per pool image
	x16                    *tf.Tensor           // the pool twice over, [16,96,96,3]
	gemmA, gemmA16         *tf.Tensor           // 2304×64 and 36864×64: the first pointwise conv's im2col at batch 1 and 16
	gemmB                  *tf.Tensor           // 64×64
	dwX, dwF, convX, convF *tf.Tensor
}

const (
	gemmRows = 48 * 48 // MobileNet α=0.25 @96: first pointwise conv sees 48×48 positions
	gemmK    = 64
	gemmN    = 64
)

func newLayerSuite(in *inputs, refs *references) (*layerSuite, error) {
	s := &layerSuite{in: in, refs: refs}
	sf, err := newServingFixture(stageTimes{})
	if err != nil {
		return nil, err
	}
	s.http = newHTTPRunner(sf, in, refs)
	s.batch = &batchRunner{f: sf, in: in, refs: refs}

	if err := tf.SetBackend("node"); err != nil {
		s.close()
		return nil, err
	}
	s.direct, err = tf.LoadGraphModel(sf.store)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("loading the artifacts directly: %w", err)
	}
	batch := make([]float32, 0, kernelBatch*imageElems)
	for i := range kernelBatch {
		batch = append(batch, in.images[i%poolSize]...)
	}
	for i, img := range in.images {
		s.x1[i] = tf.TensorOf(img, 1, imageSide, imageSide, 3)
	}
	s.x16 = tf.TensorOf(batch, kernelBatch, imageSide, imageSide, 3)
	dense := in.dense(kernelBatch * gemmRows * gemmK)
	s.gemmA = tf.TensorOf(dense[:gemmRows*gemmK], gemmRows, gemmK)
	s.gemmA16 = tf.TensorOf(dense, kernelBatch*gemmRows, gemmK)
	s.gemmB = tf.TensorOf(dense[:gemmK*gemmN], gemmK, gemmN)
	s.dwX = tf.TensorOf(dense[:48*48*32], 1, 48, 48, 32)
	s.dwF = tf.TensorOf(dense[:3*3*32], 3, 3, 32, 1)
	s.convX = tf.TensorOf(in.images[0], 1, imageSide, imageSide, 3)
	s.convF = tf.TensorOf(dense[:3*3*3*8], 3, 3, 3, 8)

	wf, err := newWebGLFixture(stageTimes{})
	if err != nil {
		s.close()
		return nil, err
	}
	s.webgl = &webglRunner{f: wf, in: in, refs: refs}
	mf, err := newMNISTFixture(in, stageTimes{})
	if err != nil {
		s.close()
		return nil, err
	}
	s.train = &trainRunner{f: mf, seed: in.seed}
	return s, nil
}

func (s *layerSuite) close() {
	if s.train != nil {
		s.train.close()
	}
	if s.webgl != nil {
		s.webgl.close()
	}
	if err := tf.SetBackend("node"); err == nil {
		for _, t := range append(s.x1[:], s.x16, s.gemmA, s.gemmA16, s.gemmB, s.dwX, s.dwF, s.convX, s.convF) {
			if t != nil {
				t.Dispose()
			}
		}
		if s.direct != nil {
			s.direct.Dispose()
		}
	}
	s.http.close()
}

// runnerFor returns the suite's runner for a workload, so the traced pass
// times the real operation on the same fixtures it replays through.
func (s *layerSuite) runnerFor(name string) runner {
	switch name {
	case "serve_http":
		return s.http
	case "serve_batch":
		return s.batch
	case "predict_webgl":
		return s.webgl
	default:
		return s.train
	}
}

// activate makes the backend a workload's eager operations run on current;
// the replay switches backends, the serving runner only ever sets node.
func activate(w workload) error {
	if w.name == "predict_webgl" {
		return tf.SetBackend("webgl")
	}
	return tf.SetBackend("node")
}

// cycle is one replay: pool image img through layers' public functions,
// each call recorded as a span under parent.
type cycle struct {
	tr     *tracer
	parent int
	op     int
	img    int
}

func (c cycle) span(name string, fn func()) { c.tr.do(name, c.parent, c.op, fn) }

// webglCounters accumulates what the device reports across replays.
type webglCounters struct {
	// gpuMS is tf.Time's device-modelled kernel time of each replayed predict.
	gpuMS []float64
}

// layerGroups are the replay's parts, one per stack of layers, in the
// order a full replay runs them. A workload names the ones on its path
// (workload.layers): the traced pass replays those beside every real
// operation and the others in a few cycles of their own afterwards, so a
// traced run reports every per-layer metric without the layers a workload
// never touches evicting the caches of the operation being traced.
var layerGroups = []string{"serving", "graphmodel", "native", "webgl", "layers"}

// replay runs the named groups of one cycle and returns the first failed
// check or call.
func (s *layerSuite) replay(c cycle, groups []string, wc *webglCounters) error {
	var firstErr error
	note := func(what string, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", what, err)
		}
	}
	for _, g := range groups {
		switch g {
		case "serving":
			s.replayServing(c, note)
		case "graphmodel":
			s.replayGraphModel(c, note)
		case "native":
			s.replayNative(c, note)
		case "webgl":
			s.replayWebGL(c, wc, note)
		case "layers":
			s.replayLayers(c, note)
		}
	}
	return firstErr
}

// replayServing is the HTTP round trip, single stream, and beside it the
// same body through the codec and the model the way handlePredict calls
// them.
func (s *layerSuite) replayServing(c cycle, note func(string, error)) {
	var probs []float32
	var err error
	c.span("serving.http_roundtrip", func() { probs, err = s.http.roundTrip(2, c.img) })
	if err == nil {
		err = s.refs.check(c.img, probs, servedTolerance)
	}
	note("http round trip", err)

	var inst, out serving.Instance
	c.span("serving.decode", func() {
		var req struct {
			Instances []json.RawMessage `json:"instances"`
		}
		if err = json.NewDecoder(bytes.NewReader(s.in.bodies[c.img])).Decode(&req); err != nil {
			return
		}
		var v any
		if err = json.Unmarshal(req.Instances[0], &v); err != nil {
			return
		}
		inst, err = serving.ParseInstance(v)
	})
	note("decode", err)
	if err != nil {
		return
	}
	c.span("serving.predict", func() { out, err = s.http.f.model.Predict(context.Background(), inst) })
	if err == nil {
		err = s.refs.check(c.img, out.Values, servedTolerance)
	}
	note("model predict", err)
	if err != nil {
		return
	}
	c.span("serving.encode", func() {
		err = json.NewEncoder(io.Discard).Encode(map[string]any{"predictions": []any{out.Render()}})
	})
	note("encode", err)
}

// replayGraphModel executes the same artifacts directly, input resident.
func (s *layerSuite) replayGraphModel(c cycle, note func(string, error)) {
	note("node backend", tf.SetBackend("node"))
	var y *tf.Tensor
	var err error
	c.span("graphmodel.execute_b1", func() { y, err = s.direct.Predict(s.x1[c.img]) })
	if err == nil {
		err = s.refs.check(c.img, y.DataSync(), servedTolerance)
		y.Dispose()
	}
	note("direct execute", err)
	c.span("graphmodel.execute_b16", func() { y, err = s.direct.Predict(s.x16) })
	if err == nil {
		err = s.refs.check(0, y.DataSync()[:numClasses], servedTolerance)
		y.Dispose()
	}
	note("direct execute at batch 16", err)
}

// replayNative runs bare kernels at the shapes that dominate MobileNet. An
// eager op may create intermediates (MatMul reshapes to rank 3 and back),
// so each runs in a tidy scope, as user code would.
func (s *layerSuite) replayNative(c cycle, note func(string, error)) {
	note("node backend", tf.SetBackend("node"))
	kernel := func(span string, op func() *tf.Tensor) {
		c.span(span, func() { tf.Tidy1(op).Dispose() })
	}
	kernel("native.gemm_pointwise", func() *tf.Tensor { return tf.MatMul(s.gemmA, s.gemmB, false, false) })
	kernel("native.gemm_pointwise_x16", func() *tf.Tensor { return tf.MatMul(s.gemmA16, s.gemmB, false, false) })
	kernel("native.depthwise", func() *tf.Tensor {
		return tf.DepthwiseConv2D(s.dwX, s.dwF, tf.ConvOpts{Pad: "same"})
	})
	kernel("native.conv3x3", func() *tf.Tensor {
		return tf.Conv2D(s.convX, s.convF, tf.ConvOpts{Strides: []int{2, 2}, Pad: "same"})
	})
}

// replayWebGL is upload → shader programs → readback, under tf.Time for
// the device-modelled kernel time.
func (s *layerSuite) replayWebGL(c cycle, wc *webglCounters, note func(string, error)) {
	note("webgl backend", tf.SetBackend("webgl"))
	var probs []float32
	id := c.tr.begin("webgl.predict", c.parent, c.op)
	stages := cycle{tr: c.tr, parent: id, op: c.op, img: c.img}
	ti := tf.Time(func() { probs = s.webgl.f.predict(s.in.images[c.img], stages.span) })
	c.tr.end(id)
	wc.gpuMS = append(wc.gpuMS, ti.KernelMS)
	note("webgl predict", s.refs.check(c.img, probs, webglTolerance))
}

// replayLayers is the convnet's forward pass alone, then a whole adam
// step, on one batch.
func (s *layerSuite) replayLayers(c cycle, note func(string, error)) {
	note("node backend", tf.SetBackend("node"))
	mf := s.train.f
	c.span("layers.forward", func() {
		o := mf.model.Predict(mf.stepX)
		o.DataSync()
		o.Dispose()
	})
	var loss float64
	var err error
	c.span("layers.step", func() { loss, err = mf.fit(mf.stepX, mf.stepY, s.in.seed) })
	if err == nil {
		err = checkLoss(loss)
	}
	note("train step", err)
}

// countedExecutes measures what a direct batch-1 execute costs in kernel
// dispatches and heap allocations. The kernel-stats observer is attached
// only for the dispatch count: an observer switches the executor arm, so
// allocations are counted without it (the live server's own observers stay,
// as they do in production).
func (s *layerSuite) countedExecutes() (dispatchesPerItem, allocsPerExecute float64, err error) {
	const n = 10
	if err := tf.SetBackend("node"); err != nil {
		return 0, 0, err
	}
	execute := func() error {
		for range n {
			y, err := s.direct.Predict(s.x1[0])
			if err != nil {
				return err
			}
			y.Dispose()
		}
		return nil
	}
	stats := tf.NewKernelStats()
	remove := tf.WithTelemetry(stats)
	err = execute()
	remove()
	if err != nil {
		return 0, 0, err
	}
	var dispatches int64
	for _, k := range stats.Kernels() {
		dispatches += k.Count
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = execute()
	runtime.ReadMemStats(&after)
	return float64(dispatches) / n, float64(after.Mallocs-before.Mallocs) / n, err
}

// webglDevice exposes the simulated device's activity counters.
func webglDevice() (programs, texturesCreated int64, err error) {
	if err := tf.SetBackend("webgl"); err != nil {
		return 0, 0, err
	}
	b, ok := tf.EngineOf().Backend().(*webgl.Backend)
	if !ok {
		return 0, 0, fmt.Errorf("active backend is %T, not the webgl backend", tf.EngineOf().Backend())
	}
	st := b.Device().Stats()
	return st.ProgramsExecuted, st.TexturesCreated, nil
}
