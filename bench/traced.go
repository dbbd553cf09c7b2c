package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/tf"
)

const (
	// tracedProbes is how many cold set-ups a traced run takes per workload
	// probed: enough for the stage times, cheap next to the 7 of a gated run.
	tracedProbes = 3
	// traceDir is where the Chrome trace lands, relative to the checkout.
	traceDir = "bench/out"
)

// runTraced is a -trace 1 run. A shorter window with tracing off gives the
// whole-window diagnostics; then the traced pass records a span around the
// real operation and, beside it, a replay of the same input through every
// layer's public functions. A per-layer time is the median over replay
// cycles of the span's self time, each corrected for the host's slowness
// during its cycle — the same estimator the end-to-end metrics use.
func runTraced(w workload, seed int64, d time.Duration) (*report, error) {
	rep := newReport(w, 1, seed)
	in := newInputs(seed)
	refs, err := computeReferences(in)
	if err != nil {
		return nil, err
	}
	rep.took("references")
	own, stages, err := tracedProbing(w, seed, refs, rep)
	if err != nil {
		return rep, err
	}
	rep.took("probes")

	s, err := newLayerSuite(in, refs)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := s.runnerFor(w.name)
	gen := newLoadGen(r, w)
	rep.took("set-up")

	// Warm-up: the real operation under load, then the replay paths.
	_, each := roundsFor(d)
	if err := activate(w); err != nil {
		return nil, err
	}
	rep.phase("warmup", gen.run(1, warmUp, nil))
	for i := range 2 {
		if err := s.replay(cycle{tr: newTracer(), parent: -1, img: i}, layerGroups, &webglCounters{}); err != nil {
			rep.fail("warm-up replay: %v", err)
		}
	}

	rep.took("warm-up")

	// Window, tracing off, 2/5 of the run.
	before, err := takeCounters(s, w)
	if err != nil {
		return nil, err
	}
	win := gen.run(max(1, int((d*2/5)/each)), each, nil)
	rep.took("window")
	rep.phase("window", win)
	afterWindow := takeMemBaseline()
	before.mem.check(rep, "window")
	if win.items == 0 {
		return rep, fmt.Errorf("nothing measured in the window: %v", rep.Problems)
	}

	// Traced pass, 3/5 of the run.
	pass := tracedPass(s, w, r, gen, d*3/5, rep)
	rep.took("traced pass")
	before.mem.check(rep, "traced pass")
	if err := s.train.verdict(); err != nil {
		rep.fail("training: %v", err)
	}
	path := filepath.Join(traceDir, "trace-"+w.name+".json")
	if err := pass.tr.writeChromeTrace(path); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	rep.Conditions["trace_file"] = path
	rep.Conditions["replay_cycles"] = len(pass.slowness)

	// The same window on every CPU, in a child, while this process idles.
	up, err := unpinnedWindow(w, seed, d/5)
	rep.took("unpinned window")
	if err != nil {
		return rep, err
	}
	rep.Phases["unpinned"] = up.Count
	if up.Count.Failed > 0 {
		rep.fail("unpinned window: %d of %d items failed, first: %s", up.Count.Failed, up.Count.Attempted, up.Problem)
	}
	rep.Conditions["unpinned"] = up

	reportLayerTimes(rep, pass)
	if err := reportCounters(rep, s, w, before, afterWindow, pass); err != nil {
		return nil, err
	}
	reportSetUp(rep, own, stages)
	reportWindow(rep, win, up, pass)
	rep.set("train.final_loss", s.train.f.lastLoss)
	return rep, nil
}

// tracedProbing takes the cold probes of a traced run: this workload's for
// the set-up spread, serve_http's for the build → convert → load →
// first-predict stage times.
func tracedProbing(w workload, seed int64, refs *references, rep *report) (own, stages *prober, err error) {
	own = &prober{w: w, seed: seed, refs: refs}
	stages = own
	if w.name != "serve_http" {
		sw, _ := workloadByName("serve_http")
		stages = &prober{w: sw, seed: seed, refs: refs}
	}
	for range tracedProbes {
		own.probe()
		if stages != own {
			stages.probe()
		}
	}
	for _, p := range []*prober{own, stages} {
		if p.err != nil {
			rep.fail("%v", p.err)
		}
		if len(p.reports) == 0 {
			return nil, nil, fmt.Errorf("no cold set-up probe of %s succeeded: %v", p.w.name, p.err)
		}
	}
	return own, stages, nil
}

// counters is the state of every cumulative counter the report takes
// deltas of, read after warm-up.
type counters struct {
	mem   memBaseline
	pool  poolCounters
	batch batchCounters
}

// poolCounters is the node backend's buffer-recycler state.
type poolCounters struct {
	hits, misses, bytes int64
}

func takePoolCounters() (poolCounters, error) {
	if err := tf.SetBackend("node"); err != nil {
		return poolCounters{}, err
	}
	m := tf.Memory().Backend
	return poolCounters{hits: m.PoolHits, misses: m.PoolMisses, bytes: m.PoolBytes}, nil
}

// batchCounters is what the registry's snapshot says the batcher did.
type batchCounters struct {
	batches, instances, rejected int64
	largest                      int
}

func takeBatchCounters(s *layerSuite) batchCounters {
	var c batchCounters
	for _, snap := range s.http.f.reg.Snapshots() {
		for size, n := range snap.BatchSizes {
			c.batches += n
			c.instances += int64(size) * n
			c.largest = max(c.largest, size)
		}
		c.rejected += snap.QueueRejected
	}
	return c
}

// takeCounters reads every counter and leaves w's backend active.
func takeCounters(s *layerSuite, w workload) (counters, error) {
	var c counters
	var err error
	if c.pool, err = takePoolCounters(); err != nil {
		return c, err
	}
	c.batch = takeBatchCounters(s)
	c.mem = takeMemBaseline()
	return c, activate(w)
}

// tracedResult is what the traced pass recorded.
type tracedResult struct {
	tr *tracer
	// slowness is the host's slowness during each cycle, by operation id.
	slowness []float64
	webgl    webglCounters
	// programs and textures are what the webgl device executed and created
	// during the pass, the real operations of predict_webgl included.
	programs, textures int64
}

// restCycles is how many cycles the traced pass spends, after its time is
// up, on the layers the workload does not touch.
const restCycles = 5

// tracedPass alternates the workload's real operation with a replay of the
// same input through the layers on the workload's path for d, recording
// spans; then it replays the other layers for restCycles cycles.
func tracedPass(s *layerSuite, w workload, r runner, gen *loadGen, d time.Duration, rep *report) *tracedResult {
	res := &tracedResult{tr: newTracer()}
	programs0, textures0, err := webglDevice()
	if err != nil {
		rep.fail("%v", err)
	}
	var count phaseCount
	// replay runs one cycle's replay of groups under a span of its own.
	replay := func(op int, groups []string) {
		id := res.tr.begin("replay", -1, op)
		err := s.replay(cycle{tr: res.tr, parent: id, op: op, img: op % poolSize}, groups, &res.webgl)
		res.tr.end(id)
		count.Attempted++
		if err != nil {
			count.Failed++
			rep.fail("replay %d: %v", op, err)
		} else {
			count.Succeeded++
		}
	}
	op := 0
	for deadline := time.Now().Add(d); time.Now().Before(deadline); op++ {
		before := sampleHost()
		if err := activate(w); err != nil {
			rep.fail("%v", err)
			break
		}
		id := res.tr.begin(w.opName, -1, op)
		if b, ok := r.(*batchRunner); ok {
			b.tr, b.parent, b.opID = res.tr, id, op
		}
		items, err := r.op(0, gen.next[0])
		res.tr.end(id)
		gen.next[0]++
		count.Attempted += w.itemsPerOp
		count.Succeeded += items
		count.Failed += w.itemsPerOp - items
		if err != nil {
			rep.fail("traced %s: %v", w.opName, err)
		}
		replay(op, w.layers)
		res.slowness = append(res.slowness, slowness(before, sampleHost()))
	}
	if b, ok := r.(*batchRunner); ok {
		b.tr = nil
	}
	var rest []string
	for _, g := range layerGroups {
		if !slices.Contains(w.layers, g) {
			rest = append(rest, g)
		}
	}
	for range restCycles {
		before := sampleHost()
		replay(op, rest)
		res.slowness = append(res.slowness, slowness(before, sampleHost()))
		op++
	}
	rep.Phases["traced"] = count
	programs1, textures1, err := webglDevice()
	if err != nil {
		rep.fail("%v", err)
	}
	res.programs, res.textures = programs1-programs0, textures1-textures0
	return res
}

// layerTime is the calibrated median of a span's self time over the cycles.
func (p *tracedResult) layerTime(series map[string][]selfSample, span string) float64 {
	var v []float64
	for _, s := range series[span] {
		v = append(v, s.ms/p.slowness[s.op])
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// reportLayerTimes derives the per-layer times from the spans.
func reportLayerTimes(rep *report, pass *tracedResult) {
	series := pass.tr.selfSeries()
	at := func(span string) float64 { return pass.layerTime(series, span) }
	for metric, span := range map[string]string{
		"serving.http_roundtrip_ms": "serving.http_roundtrip",
		"serving.decode_ms":         "serving.decode",
		"serving.encode_ms":         "serving.encode",
		"serving.predict_ms":        "serving.predict",
		"graphmodel.execute_b1_ms":  "graphmodel.execute_b1",
		"graphmodel.execute_b16_ms": "graphmodel.execute_b16",
		"native.gemm_pointwise_ms":  "native.gemm_pointwise",
		"native.depthwise_ms":       "native.depthwise",
		"native.conv3x3_ms":         "native.conv3x3",
		"webgl.upload_ms":           "webgl.upload",
		"webgl.enqueue_ms":          "webgl.enqueue",
		"webgl.readback_ms":         "webgl.readback",
		"layers.forward_ms":         "layers.forward",
		"layers.step_ms":            "layers.step",
	} {
		rep.set(metric, at(span))
	}
	// The round trip decomposes exactly: what the codec and the model do
	// not account for is the HTTP stack's.
	roundTrip := at("serving.http_roundtrip")
	unaccounted := roundTrip - at("serving.decode") - at("serving.predict") - at("serving.encode")
	rep.set("serving.http_unaccounted_ms", unaccounted)
	rep.set("serving.http_unaccounted_share", unaccounted/roundTrip)
	rep.set("serving.sched_overhead_ms", at("serving.predict")-at("graphmodel.execute_b1"))
	rep.set("train.backward_update_ms", at("layers.step")-at("layers.forward"))
	rep.set("native.gemm_gflops", 2*kernelBatch*gemmRows*gemmK*gemmN/(at("native.gemm_pointwise_x16")*1e6))
}

// reportCounters reports counts: the server's own stage figures, the
// batcher's and recycler's tallies since warm-up, the webgl device's over
// the traced pass, and a direct execute's dispatches and allocations.
func reportCounters(rep *report, s *layerSuite, w workload, before counters, afterWindow memBaseline, pass *tracedResult) error {
	sm := s.http.f.model.Metrics()
	for metric, stage := range map[string]string{
		"serving.queue_wait_ms": "queue_wait", "serving.gather_ms": "gather",
		"serving.execute_ms": "execute", "serving.split_ms": "split",
	} {
		p50, _, _ := sm.StagePercentiles(stage)
		rep.set(metric, p50)
	}
	dispatches, allocs, err := s.countedExecutes()
	if err != nil {
		rep.fail("counted executes: %v", err)
	}
	rep.set("graphmodel.dispatches_per_item", dispatches)
	rep.set("graphmodel.allocs_per_execute", allocs)

	now, err := takeCounters(s, w)
	if err != nil {
		return err
	}
	batches := max(1, now.batch.batches-before.batch.batches)
	rep.set("serving.batch_mean", float64(now.batch.instances-before.batch.instances)/float64(batches))
	rep.set("serving.batch_max", float64(now.batch.largest))
	rep.set("serving.rejected", float64(now.batch.rejected-before.batch.rejected))
	hits, misses := now.pool.hits-before.pool.hits, now.pool.misses-before.pool.misses
	rep.set("bufpool.hit_ratio", float64(hits)/float64(max(1, hits+misses)))
	rep.set("bufpool.pool_bytes", float64(now.pool.bytes))
	rep.set("core.live_tensors_delta", float64(afterWindow.tensors-before.mem.tensors))
	rep.set("core.live_bytes_delta", float64(afterWindow.bytes-before.mem.bytes))

	// Per item: per webgl predict of the traced pass, replays and — on
	// predict_webgl — real operations alike.
	n := len(pass.webgl.gpuMS)
	if w.name == "predict_webgl" {
		n *= 2
	}
	rep.set("webgl.gpu_ms_per_item", median(pass.webgl.gpuMS))
	rep.set("webgl.programs_per_item", float64(pass.programs)/float64(max(1, n)))
	rep.set("webgl.textures_created_per_item", float64(pass.textures)/float64(max(1, n)))
	if err := tf.SetBackend("webgl"); err != nil {
		return err
	}
	rep.set("webgl.free_textures", float64(tf.Memory().Backend.FreeTextures))
	return nil
}

// reportSetUp reports the cold probes: stage times from the serving
// set-up, first value and spread from the workload's own.
func reportSetUp(rep *report, own, stages *prober) {
	for _, stage := range []string{"models.build_ms", "converter.convert_ms", "serving.load_ms", "graphmodel.first_predict_ms"} {
		var v []float64
		for _, r := range stages.reports {
			v = append(v, r.Stages[stage]/slowness(r.Before, r.After))
		}
		rep.set(stage, median(v))
	}
	setups := own.setupSeconds()
	rep.set("setup.first_cold_s", setups[0])
	rep.set("setup.spread", (slices.Max(setups)-slices.Min(setups))/slices.Min(setups))
}

// reportWindow reports the window three ways — plain whole-window
// statistics, the uncorrected best round, the calibrated median — with the
// host's measured share, so the gap between the program and the host is on
// the page.
func reportWindow(rep *report, win *window, up unpinnedReport, pass *tracedResult) {
	rep.set("e2e.window_p50_ms", median(win.lat))
	tailPct, tail, ok := highestPercentile(win.lat)
	if !ok {
		rep.fail("window has %d samples, too few for any tail percentile", len(win.lat))
	}
	rep.set("e2e.window_tail_ms", tail)
	rep.set("e2e.window_tail_pct", tailPct)
	rep.set("e2e.window_items_per_s", float64(win.items)/win.loadTime.Seconds())
	rep.set("e2e.samples", float64(len(win.lat)))
	rep.set("e2e.cpu_ms_per_item", float64(win.cpu)/float64(time.Millisecond)/float64(win.items))
	best, floor := quietRounds(win.rounds)
	rep.set("e2e.best_round_items_per_s", best)
	rep.set("e2e.best_round_p50_ms", floor)
	itemsPerS, p50 := calibratedRounds(win.rounds)
	rep.set("e2e.calibrated_items_per_s", itemsPerS)
	rep.set("e2e.calibrated_p50_ms", p50)
	// What the one-CPU figures above leave out: the same window on every
	// CPU, and how much faster than the pinned plain figure it ran.
	rep.set("e2e.unpinned_items_per_s", up.ItemsPerS)
	rep.set("e2e.unpinned_p50_ms", up.P50MS)
	rep.set("e2e.unpinned_speedup", up.ItemsPerS/(float64(win.items)/win.loadTime.Seconds()))

	var total phaseCount
	for _, c := range rep.Phases {
		total.add(c)
	}
	rep.set("e2e.failed_share", float64(total.Failed)/float64(max(1, total.Attempted)))
	slow, burst, spread := hostNoise(win.rounds)
	rep.set("host.slowness_p50", slow)
	rep.set("host.burst_share", burst)
	rep.set("host.round_spread", spread)
	rep.set("host.calibration_ms", median(calibrationSamples))

	// Tracing overhead: the spans are the benchmark's own, around calls made
	// from outside, so their cost is what recording them takes out of the
	// traced pass. (The traced pass drives one operation at a time, so its
	// latencies do not compare with a two-generator window's.)
	recorded, tracedMS := pass.tr.extent()
	rep.set("telemetry.trace_overhead_share", float64(recorded)*spanCost()/tracedMS)
}
