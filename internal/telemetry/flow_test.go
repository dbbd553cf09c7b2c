package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestRequestFlowTraceEvents verifies the fan-in rendering: a request
// event opens a Chrome flow (ph "s") on its track, its execute stage
// closes it (ph "f", bp "e") on the batch track, both share the flow id,
// and the whole trace still validates against the schema.
func TestRequestFlowTraceEvents(t *testing.T) {
	r := NewRecorder(0)
	now := time.Now()
	r.Observe(Event{Kind: KindBatch, Name: "batch", Span: "m", FlowID: 99, Count: 2,
		Start: now, DurMS: 4})
	for _, flow := range []uint64{7, 8} {
		r.Observe(Event{Kind: KindStage, Name: "execute", Span: "m", Trace: "req-x",
			FlowID: flow, Start: now, DurMS: 4})
		r.Observe(Event{Kind: KindRequest, Name: "request", Span: "m", Trace: "req-x",
			FlowID: flow, Start: now.Add(-time.Millisecond), DurMS: 6})
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("flow trace fails schema validation: %v", err)
	}

	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TID   int            `json:"tid"`
			ID    string         `json:"id"`
			BP    string         `json:"bp"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	starts := map[string]bool{}
	finishes := map[string]bool{}
	batchSlices := 0
	for _, te := range trace.TraceEvents {
		switch te.Phase {
		case "s":
			starts[te.ID] = true
		case "f":
			finishes[te.ID] = true
			if te.BP != "e" {
				t.Errorf("flow finish %q has bp %q, want \"e\" (bind to enclosing slice)", te.ID, te.BP)
			}
			if te.TID != tidBatches {
				t.Errorf("flow finish %q on tid %d, want batch track %d", te.ID, te.TID, tidBatches)
			}
		case "X":
			if te.Name == "batch" {
				batchSlices++
				if got := te.Args["batch_size"]; got != float64(2) {
					t.Errorf("batch slice batch_size = %v, want 2", got)
				}
			}
		}
	}
	if len(starts) != 2 || len(finishes) != 2 {
		t.Fatalf("flow starts/finishes = %d/%d ids, want 2/2", len(starts), len(finishes))
	}
	for id := range starts {
		if !finishes[id] {
			t.Errorf("flow %q started but never finished", id)
		}
	}
	if batchSlices != 1 {
		t.Fatalf("batch slices = %d, want 1", batchSlices)
	}
}

// TestRequestWithoutFlowStaysPlain checks that untraced request/stage
// events (flow id 0 — hub observed but request arrived before tagging)
// render as ordinary slices with no dangling flow events.
func TestRequestWithoutFlowStaysPlain(t *testing.T) {
	r := NewRecorder(0)
	r.Observe(Event{Kind: KindRequest, Name: "request", Start: time.Now(), DurMS: 1})
	r.Observe(Event{Kind: KindStage, Name: "execute", Start: time.Now(), DurMS: 1})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"ph":"s"`)) || bytes.Contains(buf.Bytes(), []byte(`"ph":"f"`)) {
		t.Fatalf("flow events emitted for flow id 0:\n%s", buf.String())
	}
}

// TestHubConcurrentSpansAndObservers is the -race stress for the span
// stack: goroutines open and close nested spans and emit events while
// others register and unregister observers mid-stream. The assertions
// are minimal — the value of the test is the race detector over the
// copy-on-write observer list and the atomic span stack.
func TestHubConcurrentSpansAndObservers(t *testing.T) {
	h := NewHub()
	stop := make(chan struct{})
	var churners, emitters sync.WaitGroup

	// Observer churn: register/unregister in a tight loop until the
	// emitters finish.
	for i := 0; i < 4; i++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				remove := h.Register(ObserverFunc(func(ev Event) {
					_ = ev.Span // read the attributed span
				}))
				remove()
			}
		}()
	}
	// Two span writers (one per replica engine: executions serialize per
	// engine, not per hub) racing against each other and against...
	for w := 0; w < 2; w++ {
		emitters.Add(1)
		go func() {
			defer emitters.Done()
			for j := 0; j < 500; j++ {
				outer := h.BeginSpan("outer")
				inner := h.BeginSpan("inner")
				h.Emit(Event{Kind: KindKernel, Name: "K", Span: h.CurrentSpan()})
				inner.End()
				h.Emit(Event{Kind: KindStage, Name: "execute", Span: h.CurrentSpan()})
				outer.End()
			}
		}()
	}
	// ...concurrent emitters on other goroutines, which read the span
	// pointer while the writers swap it.
	for i := 0; i < 3; i++ {
		emitters.Add(1)
		go func() {
			defer emitters.Done()
			for j := 0; j < 500; j++ {
				h.Emit(Event{Kind: KindRequest, Name: "request", Span: h.CurrentSpan(), FlowID: uint64(j)})
			}
		}()
	}
	emitters.Wait()
	close(stop)
	churners.Wait()
	if got := h.CurrentSpan(); got != "" {
		t.Fatalf("span stack not empty after all spans closed: %q", got)
	}
}
