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

// request is one queued single-example prediction.
type request struct {
	ctx  context.Context
	inst Instance
	resp chan response // buffered(1): workers never block on delivery

	// Tracing state. trace is the request/trace ID from the context (or
	// generated); flow is the numeric Chrome flow-event ID linking this
	// request's span to the batched execution it joins (0 when the
	// telemetry hub has no observers). enqueued/dequeued bound the
	// queue-wait stage and are recorded unconditionally — they also feed
	// the stage-latency histograms in /metrics.
	trace    string
	flow     uint64
	enqueued time.Time
	dequeued time.Time
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
	stop  chan struct{}
	wg    sync.WaitGroup

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
		stop:    make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// retryAfter computes the backoff hint for a shed request from the
// model's execute-stage latency and the queue ahead of it.
func (s *scheduler) retryAfter() time.Duration {
	return retryAfterHint(s.metrics, len(s.queue), s.cfg.MaxBatchSize)
}

// Close stops the workers and waits for in-flight batches to finish.
func (s *scheduler) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// QueueDepth samples the number of pending requests.
func (s *scheduler) QueueDepth() int { return len(s.queue) }

// Submit enqueues one example and blocks until its result, the context's
// deadline, or shutdown. The request's deadline is capped server-side at
// RequestTimeout.
func (s *scheduler) Submit(ctx context.Context, inst Instance) (Instance, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	req := &request{ctx: ctx, inst: inst, resp: make(chan response, 1), enqueued: time.Now()}
	if s.hub.Active() {
		req.trace = RequestID(ctx)
		if req.trace == "" {
			req.trace = generateRequestID()
		}
		req.flow = nextID()
	}
	select {
	case s.queue <- req:
	default:
		s.metrics.ObserveRejected()
		// ShedError unwraps to ErrQueueFull, so errors.Is callers see the
		// same contract as before; the wrapper adds the Retry-After hint.
		return Instance{}, &ShedError{
			Reason:     "queue_full",
			RetryAfter: s.retryAfter(),
		}
	}
	select {
	case r := <-req.resp:
		return r.inst, r.err
	case <-ctx.Done():
		return Instance{}, ctx.Err()
	case <-s.stop:
		return Instance{}, ErrShuttingDown
	}
}

// worker drains the queue: block for the first request, coalesce a batch,
// execute, deliver.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case first := <-s.queue:
			s.execute(s.gather(first))
		}
	}
}

// admit stamps a pulled request's dequeue time unless its context already
// expired — an abandoned submitter is answered immediately (it has
// already gone away) instead of consuming a batch slot, so a slow client
// cannot shrink the effective batch for everyone else.
func (s *scheduler) admit(batch []*request, r *request) []*request {
	if err := r.ctx.Err(); err != nil {
		r.resp <- response{err: err}
		return batch
	}
	r.dequeued = time.Now()
	return append(batch, r)
}

// gather coalesces queued requests behind first into a batch: up to
// MaxBatchSize, waiting at most BatchTimeout past the first arrival.
// Requests whose context expired while queued are dropped at admission,
// so the returned batch may be smaller than what was pulled — or empty.
func (s *scheduler) gather(first *request) []*request {
	batch := s.admit(nil, first)
	if s.cfg.MaxBatchSize <= 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.BatchTimeout)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatchSize {
		select {
		case r := <-s.queue:
			batch = s.admit(batch, r)
		case <-timer.C:
			return batch
		case <-s.stop:
			return batch
		}
	}
	return batch
}

// execute groups the batch by instance shape (only same-shaped examples
// can share a slab) and runs each group as one batched execution, in order
// of each shape's first arrival.
func (s *scheduler) execute(batch []*request) {
	var groups [][]*request
	for _, r := range batch {
		i := slices.IndexFunc(groups, func(g []*request) bool { return slices.Equal(g[0].inst.Shape, r.inst.Shape) })
		if i < 0 {
			i = len(groups)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	for _, g := range groups {
		s.runGroup(g)
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
func (s *scheduler) runGroup(group []*request) {
	execStart := time.Now()
	insts := make([]Instance, len(group))
	for i, r := range group {
		s.stage("queue_wait", r.enqueued, r.dequeued, r)
		s.stage("gather", r.dequeued, execStart, r)
		insts[i] = r.inst
	}
	s.metrics.ObserveBatch(len(group))
	outs, err := s.run.run(insts)
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

	for i, r := range group {
		if err != nil {
			r.resp <- response{err: err}
		} else {
			r.resp <- response{inst: outs[i]}
		}
		end := time.Now()
		s.stage("split", execEnd, end, r)
		if observed {
			s.hub.Emit(telemetry.Event{
				Kind: telemetry.KindRequest, Name: "request", Span: s.model,
				Trace: r.trace, FlowID: r.flow, Start: r.enqueued,
				DurMS: durMS(r.enqueued, end),
			})
		}
	}
}

// durMS is the duration between two instants in float milliseconds.
func durMS(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}
