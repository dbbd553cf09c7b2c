package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// workload is one closed-loop traffic shape. Callers of this system wait
// for their reply, so each generator sends its next operation only when the
// previous one completed.
type workload struct {
	name string
	// opName names the span the traced pass records around one operation.
	opName string
	// generators is how many goroutines (connections) issue operations.
	generators int
	// itemsPerOp is how many items one operation attempts.
	itemsPerOp int
	// layers names the replay groups (layerGroups) on the workload's path:
	// the layers whose metrics README.md's table says the workload moves.
	layers []string
	// setUp is the cold path setup_s times: build the model, convert, load or
	// compile, and produce a first output (the probabilities of pool image
	// 0, or the first epoch's loss). refs may be nil; outputs are then not
	// compared, as in a cold probe child that leaves the check to its parent.
	setUp func(in *inputs, refs *references, stages stageTimes) (runner, []float32, error)
	// checkFirst judges setUp's first output.
	checkFirst func(refs *references, first []float32) error
}

// runner executes a set-up workload's operations.
type runner interface {
	// op runs generator g's k-th operation, checks every output against the
	// references, and returns how many of its items completed correctly.
	op(g, k int) (items int, err error)
	close()
}

// resetter is a runner whose work drifts as it runs; reset puts it back to
// its initial state, between rounds and outside anything timed.
type resetter interface {
	reset() error
}

var workloads = []workload{
	{
		name: "serve_http", opName: "serve_http.roundtrip", generators: 2, itemsPerOp: 1,
		layers: []string{"serving", "graphmodel", "native"},
		setUp: func(in *inputs, refs *references, stages stageTimes) (runner, []float32, error) {
			f, err := newServingFixture(stages)
			if err != nil {
				return nil, nil, err
			}
			r := newHTTPRunner(f, in, refs)
			var first []float32
			err = stages.time("graphmodel.first_predict_ms", func() error {
				first, err = r.roundTrip(0, 0)
				return err
			})
			if err != nil {
				r.close()
				return nil, nil, err
			}
			return r, first, nil
		},
		checkFirst: func(refs *references, first []float32) error { return refs.check(0, first, servedTolerance) },
	},
	{
		name: "serve_batch", opName: "serve_batch.group", generators: 2, itemsPerOp: groupSize,
		layers: []string{"serving", "graphmodel", "native"},
		setUp: func(in *inputs, refs *references, stages stageTimes) (runner, []float32, error) {
			f, err := newServingFixture(stages)
			if err != nil {
				return nil, nil, err
			}
			r := &batchRunner{f: f, in: in, refs: refs}
			var first []float32
			err = stages.time("graphmodel.first_predict_ms", func() error {
				out, err := f.model.Predict(context.Background(), f.instance(in.images[0]))
				first = out.Values
				return err
			})
			if err != nil {
				r.close()
				return nil, nil, err
			}
			return r, first, nil
		},
		checkFirst: func(refs *references, first []float32) error { return refs.check(0, first, servedTolerance) },
	},
	{
		name: "predict_webgl", opName: "predict_webgl.predict", generators: 1, itemsPerOp: 1,
		layers: []string{"webgl"},
		setUp: func(in *inputs, refs *references, stages stageTimes) (runner, []float32, error) {
			f, err := newWebGLFixture(stages)
			if err != nil {
				return nil, nil, err
			}
			r := &webglRunner{f: f, in: in, refs: refs}
			start := time.Now()
			first := f.predict(in.images[0], untraced)
			stages["first_output_ms"] = msSince(start)
			return r, first, nil
		},
		checkFirst: func(refs *references, first []float32) error { return refs.check(0, first, webglTolerance) },
	},
	{
		name: "train_mnist", opName: "train_mnist.fit", generators: 1, itemsPerOp: digitCount,
		layers: []string{"layers", "native"},
		setUp: func(in *inputs, _ *references, stages stageTimes) (runner, []float32, error) {
			f, err := newMNISTFixture(in, stages)
			if err != nil {
				return nil, nil, err
			}
			r := &trainRunner{f: f, seed: in.seed}
			var loss float64
			err = stages.time("first_output_ms", func() error {
				loss, err = f.fit(f.train.Images, f.train.Labels, in.seed)
				return err
			})
			if err != nil {
				r.close()
				return nil, nil, err
			}
			return r, []float32{float32(loss)}, nil
		},
		checkFirst: func(_ *references, first []float32) error {
			if len(first) != 1 {
				return fmt.Errorf("got %d losses, want 1", len(first))
			}
			return checkLoss(float64(first[0]))
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// httpRunner is serve_http: keep-alive connections, one instance per POST
// over the loopback listener. Item = instance.
type httpRunner struct {
	f    *servingFixture
	in   *inputs
	refs *references
	// clients holds one single-connection client per generator, plus one
	// for the traced pass's single-stream replay.
	clients []*http.Client
}

func newHTTPRunner(f *servingFixture, in *inputs, refs *references) *httpRunner {
	r := &httpRunner{f: f, in: in, refs: refs}
	for range 3 {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
	}
	return r
}

// roundTrip POSTs pool image i on client c and returns the prediction.
func (r *httpRunner) roundTrip(c, i int) ([]float32, error) {
	resp, err := r.clients[c].Post(r.f.url, "application/json", bytes.NewReader(r.in.bodies[i]))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	var reply struct {
		Predictions [][]float32 `json:"predictions"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, err
	}
	if len(reply.Predictions) != 1 {
		return nil, fmt.Errorf("got %d predictions, want 1", len(reply.Predictions))
	}
	return reply.Predictions[0], nil
}

func (r *httpRunner) op(g, k int) (int, error) {
	i := (g + k*2) % poolSize
	probs, err := r.roundTrip(g, i)
	if err != nil {
		return 0, err
	}
	if err := r.refs.check(i, probs, servedTolerance); err != nil {
		return 0, err
	}
	return 1, nil
}

func (r *httpRunner) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.f.close()
}

// batchRunner is serve_batch: the same live server with the codec
// bypassed. Each generator submits a group of 8 concurrent Model.Predict
// calls and waits for all of them, as handlePredict's multi-instance
// fan-out does, so 16 are in flight — one default MaxBatchSize.
// Operation = group, item = instance.
type batchRunner struct {
	f    *servingFixture
	in   *inputs
	refs *references
	// tr, when set by the traced pass, records each instance's Predict as a
	// child span of parent.
	tr           *tracer
	parent, opID int
}

const groupSize = 8

func (r *batchRunner) op(g, k int) (int, error) {
	var wg sync.WaitGroup
	errs := make([]error, groupSize)
	for j := range groupSize {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := (j + g + k) % poolSize
			if r.tr != nil {
				defer r.tr.end(r.tr.begin("serve_batch.instance", r.parent, r.opID))
			}
			out, err := r.f.model.Predict(context.Background(), r.f.instance(r.in.images[i]))
			if err == nil {
				err = r.refs.check(i, out.Values, servedTolerance)
			}
			errs[j] = err
		}()
	}
	wg.Wait()
	items := groupSize
	var first error
	for _, err := range errs {
		if err != nil {
			items--
			if first == nil {
				first = err
			}
		}
	}
	return items, first
}

func (r *batchRunner) close() { r.f.close() }

// webglRunner is predict_webgl: one goroutine, Layers-API Predict +
// DataSync on the webgl backend.
type webglRunner struct {
	f    *webglFixture
	in   *inputs
	refs *references
}

func (r *webglRunner) op(_, k int) (int, error) {
	i := k % poolSize
	if err := r.refs.check(i, r.f.predict(r.in.images[i], untraced), webglTolerance); err != nil {
		return 0, err
	}
	return 1, nil
}

func (r *webglRunner) close() { r.f.close() }

// trainRunner is train_mnist: one goroutine, one Fit epoch over the 128
// digits (4 adam steps of 32) per operation. Item = example.
type trainRunner struct {
	f    *mnistFixture
	seed int64
}

func (r *trainRunner) op(_, _ int) (int, error) {
	loss, err := r.f.fit(r.f.train.Images, r.f.train.Labels, r.seed)
	if err != nil {
		return 0, err
	}
	if err := checkLoss(loss); err != nil {
		return 0, err
	}
	return digitCount, nil
}

func (r *trainRunner) reset() error { return r.f.reset() }

// verdict judges the whole training run: the loss fell and the model
// classifies held-out digits better than chance.
func (r *trainRunner) verdict() error {
	if !(r.f.lastLoss < r.f.firstLoss) {
		return fmt.Errorf("final loss %v is not below first-epoch loss %v", r.f.lastLoss, r.f.firstLoss)
	}
	eval, err := r.f.model.Evaluate(r.f.heldOut.Images, r.f.heldOut.Labels, 64)
	if err != nil {
		return err
	}
	if acc := eval["acc"]; !(acc > 2.0/10) {
		return fmt.Errorf("held-out accuracy %v is not above chance", acc)
	}
	return nil
}

func (r *trainRunner) close() { r.f.close() }
