package serving

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// request is one queued single-example prediction. A scheduler recycles
// its requests (take, recycle): a Submit that received its reply puts its
// request back, so a served request allocates none of its control state.
type request struct {
	ctx context.Context
	// deadline is RequestTimeout past the enqueue when ctx carries no
	// deadline of its own, zero otherwise: admission answers a request
	// past it as it does one whose ctx expired.
	deadline time.Time
	inst     Instance
	resp     chan response // buffered(1): workers never block on delivery
	// timer bounds Submit's wait at deadline. It is the request's own and
	// kept across reuses, stopped before each: a stopped timer's channel
	// holds no stale value.
	timer *time.Timer

	// Tracing state. trace is the request/trace ID from the context ("" for
	// a direct submitter, which the trace renders as req-<flow>); flow is
	// the numeric Chrome flow-event ID linking this request's span to the
	// batched execution it joins (0 when the telemetry hub has no
	// observers). enqueued/dequeued bound the queue-wait stage and are
	// recorded unconditionally — they also feed the stage-latency
	// histograms in /metrics.
	trace    string
	flow     uint64
	enqueued time.Time
	dequeued time.Time
}

// err is why r can no longer be served at now — its context ended or its
// deadline passed — or nil.
func (r *request) err(now time.Time) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if !r.deadline.IsZero() && !now.Before(r.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// response carries the per-example result back to the submitter.
type response struct {
	inst Instance
	err  error
}

// scheduler owns one model's bounded request queue, worker pool and
// dynamic micro-batcher. Submissions beyond QueueSize fail fast with
// ErrQueueFull (backpressure, 429); each worker coalesces up to
// MaxBatchSize queued requests, waiting at most BatchTimeout after the
// first arrival, and executes them as one batch.
//
// Every request is traced through four stages — queue_wait, gather,
// execute, split — with per-stage latency histograms; when the telemetry
// hub has observers, each stage also emits an Event tagged with the
// request's trace ID, and Chrome flow events link the N coalesced
// request spans into the one batch slice that served them.
type scheduler struct {
	cfg     Config
	model   string
	run     runner
	metrics *Metrics
	hub     *telemetry.Hub

	queue chan *request
	// free holds requests whose Submit has received its reply, for the
	// next Submit. A channel, not a sync.Pool, which a GC empties; sized
	// like the queue, which bounds the requests waiting at once.
	free chan *request
	stop chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
}

// newScheduler starts the worker pool. The model name labels batch spans
// and stage events.
func newScheduler(cfg Config, model string, run runner, metrics *Metrics) *scheduler {
	s := &scheduler{
		cfg:     cfg,
		model:   model,
		run:     run,
		metrics: metrics,
		hub:     core.Global().Telemetry(),
		queue:   make(chan *request, cfg.QueueSize),
		free:    make(chan *request, cfg.QueueSize),
		stop:    make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ShedError is returned when the bounded queue refuses a request. It
// unwraps to ErrQueueFull and maps to HTTP 429 with a Retry-After header
// estimated from the model's recent execution latency.
type ShedError struct {
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *ShedError) Error() string {
	return fmt.Sprintf("serving: request shed (queue_full); retry after %s", e.RetryAfter)
}

// Unwrap lets errors.Is(err, ErrQueueFull) see a shed.
func (e *ShedError) Unwrap() error { return ErrQueueFull }

// retryAfter computes the backoff hint for a shed request from the
// model's execute-stage latency and the queue ahead of it.
func (s *scheduler) retryAfter() time.Duration {
	return retryAfterHint(s.metrics, len(s.queue), s.cfg.MaxBatchSize)
}

// retryAfterHint estimates a client backoff from the model's recent
// execute-stage latency and queue depth: roughly "one queue drain" —
// p50 execution time times the batches ahead — clamped to a sane band.
// The execute stage is sampled once per completed batch execute, so it is
// the model's measured execution time; a model that has executed nothing
// yet is assumed to take 50 ms.
func retryAfterHint(m *Metrics, queueDepth, maxBatch int) time.Duration {
	p50, _, _ := m.StagePercentiles("execute")
	if p50 <= 0 {
		p50 = 50 // nothing observed yet: assume a 50ms model
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	batchesAhead := queueDepth/maxBatch + 1
	d := time.Duration(p50*float64(batchesAhead)) * time.Millisecond
	const floor, ceil = 100 * time.Millisecond, 5 * time.Second
	if d < floor {
		return floor
	}
	if d > ceil {
		return ceil
	}
	return d
}

// Close stops the workers and waits for in-flight batches to finish.
func (s *scheduler) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// QueueDepth samples the number of pending requests.
func (s *scheduler) QueueDepth() int { return len(s.queue) }

// take returns a recycled request, or a new one when none is free.
func (s *scheduler) take() *request {
	select {
	case r := <-s.free:
		return r
	default:
		return &request{resp: make(chan response, 1), timer: stoppedTimer()}
	}
}

// recycle clears r and puts it on the free list. Only a request no worker
// holds comes here: one never queued, or one whose reply Submit received
// (the worker's send is its last touch of the request). A request its
// submitter abandoned may still be answered later, so it is never
// recycled: the GC takes it.
func (s *scheduler) recycle(r *request) {
	*r = request{resp: r.resp, timer: r.timer}
	select {
	case s.free <- r:
	default:
	}
}

// Submit enqueues one example and blocks until its result, the context's
// deadline, or shutdown. The request's deadline is capped server-side at
// RequestTimeout.
func (s *scheduler) Submit(ctx context.Context, inst Instance) (Instance, error) {
	req := s.take()
	req.ctx, req.inst, req.enqueued = ctx, inst, time.Now()
	if _, ok := ctx.Deadline(); !ok {
		req.deadline = req.enqueued.Add(s.cfg.RequestTimeout)
	}
	if s.hub.Active() {
		req.trace = RequestID(ctx)
		req.flow = nextID()
	}
	select {
	case s.queue <- req:
	default:
		s.recycle(req)
		s.metrics.ObserveRejected()
		return Instance{}, &ShedError{RetryAfter: s.retryAfter()}
	}
	var timeout <-chan time.Time
	if !req.deadline.IsZero() {
		req.timer.Reset(time.Until(req.deadline))
		timeout = req.timer.C
	}
	select {
	case r := <-req.resp:
		req.timer.Stop()
		s.recycle(req)
		return r.inst, r.err
	case <-ctx.Done():
		req.timer.Stop()
		return Instance{}, ctx.Err()
	case <-timeout:
		return Instance{}, context.DeadlineExceeded
	case <-s.stop:
		req.timer.Stop()
		return Instance{}, ErrShuttingDown
	}
}

// stoppedTimer returns a timer that is not running and whose channel is
// empty, for Reset to start.
func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// batcher is one worker's scratch, reused across its batches: the batch,
// its shape groups, the group's instances and results, and the gather
// timer.
type batcher struct {
	batch  []*request
	groups [][]*request
	insts  []Instance
	outs   []Instance
	timer  *time.Timer
}

// worker drains the queue: block for the first request, coalesce a batch,
// execute, deliver.
func (s *scheduler) worker() {
	defer s.wg.Done()
	b := &batcher{timer: stoppedTimer()}
	for {
		select {
		case <-s.stop:
			return
		case first := <-s.queue:
			s.execute(b, s.gather(b, first))
		}
	}
}

// admit stamps a pulled request's dequeue time unless its context ended or
// its deadline passed — an abandoned submitter is answered immediately (it
// has already gone away) instead of consuming a batch slot, so a slow
// client cannot shrink the effective batch for everyone else.
func (s *scheduler) admit(batch []*request, r *request) []*request {
	now := time.Now()
	if err := r.err(now); err != nil {
		r.resp <- response{err: err}
		return batch
	}
	r.dequeued = now
	return append(batch, r)
}

// gather coalesces queued requests behind first into a batch: up to
// MaxBatchSize, waiting at most BatchTimeout past the first arrival.
// Requests whose context expired while queued are dropped at admission,
// so the returned batch may be smaller than what was pulled — or empty.
// The batch is b's: valid until the next gather.
func (s *scheduler) gather(b *batcher, first *request) []*request {
	b.batch = s.admit(b.batch[:0], first)
	if s.cfg.MaxBatchSize <= 1 {
		return b.batch
	}
	b.timer.Reset(s.cfg.BatchTimeout)
	for len(b.batch) < s.cfg.MaxBatchSize {
		select {
		case r := <-s.queue:
			b.batch = s.admit(b.batch, r)
		case <-b.timer.C:
			return b.batch
		case <-s.stop:
			b.timer.Stop()
			return b.batch
		}
	}
	b.timer.Stop()
	return b.batch
}

// execute groups the batch by instance shape (only same-shaped examples
// can share a slab) and runs each group as one batched execution, in order
// of each shape's first arrival.
func (s *scheduler) execute(b *batcher, batch []*request) {
	groups := b.groups[:0]
	for _, r := range batch {
		i := slices.IndexFunc(groups, func(g []*request) bool { return slices.Equal(g[0].inst.Shape, r.inst.Shape) })
		if i < 0 {
			// Grow keeps the group slices past len: a new group reuses
			// the one its index held in an earlier batch.
			i = len(groups)
			groups = slices.Grow(groups, 1)[:i+1]
			groups[i] = groups[i][:0]
		}
		groups[i] = append(groups[i], r)
	}
	b.groups = groups
	for _, g := range groups {
		s.runGroup(b, g)
	}
}

// stage records one sample of a named stage's latency: always in the
// stage's /metrics histogram and, when the hub is observed, as a KindStage
// trace event for each request that spent that time there — one request
// for queue_wait, gather and split, the whole group for execute (the batch
// is what executed: one sample per batch, one event per member).
func (s *scheduler) stage(name string, start, end time.Time, members ...*request) {
	ms := durMS(start, end)
	s.metrics.ObserveStage(name, ms)
	if !s.hub.Active() {
		return
	}
	for _, r := range members {
		s.hub.Emit(telemetry.Event{
			Kind: telemetry.KindStage, Name: name, Span: s.model,
			Trace: r.trace, FlowID: r.flow, Start: start, DurMS: ms,
		})
	}
}

// runGroup executes one same-shaped group as a single batched call and
// delivers per-request results. Every request passes four stages here:
// queue_wait (enqueue to dequeue), gather (dequeue until its batch is
// formed and leaves — the batch-formation wait, not a copy), execute (the
// runner: slab copy and upload, model execution, read-back) and split
// (execute's end until its result is handed over).
func (s *scheduler) runGroup(b *batcher, group []*request) {
	execStart := time.Now()
	b.insts = b.insts[:0]
	for _, r := range group {
		s.stage("queue_wait", r.enqueued, r.dequeued, r)
		s.stage("gather", r.dequeued, execStart, r)
		b.insts = append(b.insts, r.inst)
	}
	s.metrics.ObserveBatch(len(group))
	outs, err := s.run.run(b.insts, b.outs[:0])
	b.outs = outs
	if err == nil && len(outs) != len(group) {
		err = fmt.Errorf("serving: runner returned %d results for a batch of %d", len(outs), len(group))
	}
	execEnd := time.Now()

	observed := s.hub.Active()
	if observed {
		// One batch slice per group — the fan-in target; each member's
		// execute event below carries the flow ID that the trace renderer
		// turns into an arrow from the request's span into this slice.
		s.hub.Emit(telemetry.Event{
			Kind: telemetry.KindBatch, Name: "batch", Span: s.model,
			FlowID: nextID(), Count: len(group), Start: execStart, DurMS: durMS(execStart, execEnd),
		})
	}
	s.stage("execute", execStart, execEnd, group...)

	// A request's split sample and trace event are recorded before its
	// result is handed over (resp is buffered, so the send never waits):
	// once the caller has its reply, /metrics and /debug/trace hold them.
	for i, r := range group {
		end := time.Now()
		s.stage("split", execEnd, end, r)
		if observed {
			s.hub.Emit(telemetry.Event{
				Kind: telemetry.KindRequest, Name: "request", Span: s.model,
				Trace: r.trace, FlowID: r.flow, Start: r.enqueued,
				DurMS: durMS(r.enqueued, end),
			})
		}
		if err != nil {
			r.resp <- response{err: err}
		} else {
			r.resp <- response{inst: outs[i]}
		}
	}
	// Let go of the inputs' and outputs' values until the next batch.
	clear(b.insts)
	clear(b.outs)
}

// durMS is the duration between two instants in float milliseconds.
func durMS(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}
