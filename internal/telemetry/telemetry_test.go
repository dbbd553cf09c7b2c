package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHubInactiveDropsEvents(t *testing.T) {
	h := NewHub()
	if h.Active() {
		t.Fatal("empty hub reports active")
	}
	// Emitting with no observers must be a no-op (and not panic).
	h.Emit(Event{Kind: KindKernel, Name: "MatMul"})
}

func TestHubRegisterEmitRemove(t *testing.T) {
	h := NewHub()
	var got []Event
	remove := h.Register(ObserverFunc(func(ev Event) { got = append(got, ev) }))
	if !h.Active() {
		t.Fatal("hub with observer reports inactive")
	}
	h.Emit(Event{Kind: KindKernel, Name: "Conv2D", DurMS: 1.5})
	if len(got) != 1 || got[0].Name != "Conv2D" {
		t.Fatalf("got %+v", got)
	}
	if got[0].Start.IsZero() {
		t.Fatal("Emit did not stamp Start")
	}
	remove()
	remove() // idempotent
	if h.Active() {
		t.Fatal("hub reports active after removal")
	}
	h.Emit(Event{Kind: KindKernel, Name: "Conv2D"})
	if len(got) != 1 {
		t.Fatal("event delivered after removal")
	}
}

// TestHubSpanAttribution covers the hub's half of span attribution: the
// stack of open spans behind CurrentSpan, which emitters that belong to no
// engine stamp their events from (an engine stamps its own; see
// core.Engine.BeginSpan and serving's TestConcurrentSpanAttribution).
func TestHubSpanAttribution(t *testing.T) {
	h := NewHub()
	var spans []string
	var names []string
	h.Register(ObserverFunc(func(ev Event) {
		if ev.Kind == KindKernel {
			spans = append(spans, ev.Span)
		}
		if ev.Kind == KindSpan {
			names = append(names, ev.Name)
			if ev.Span != ev.Name {
				t.Errorf("span event %q says it belongs to %q", ev.Name, ev.Span)
			}
		}
	}))
	emit := func(name string) { h.Emit(Event{Kind: KindKernel, Name: name, Span: h.CurrentSpan()}) }
	emit("A")
	outer := h.BeginSpan("mobilenet:input->Softmax")
	if h.CurrentSpan() != "mobilenet:input->Softmax" {
		t.Fatalf("CurrentSpan = %q", h.CurrentSpan())
	}
	emit("B")
	inner := h.BeginSpan("inner")
	emit("C")
	inner.End()
	emit("D")
	outer.End()
	outer.End() // idempotent
	emit("E")
	h.Emit(Event{Kind: KindKernel, Name: "F"}) // the hub never fills Span in

	want := []string{"", "mobilenet:input->Softmax", "inner", "mobilenet:input->Softmax", "", ""}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span[%d] = %q, want %q", i, spans[i], want[i])
		}
	}
	if len(names) != 2 || names[0] != "inner" || names[1] != "mobilenet:input->Softmax" {
		t.Fatalf("span events = %v", names)
	}

	// Two engines' spans overlap without nesting: the first opened ends
	// first. The later one stays current, and ending it unlinks both.
	a := h.BeginSpan("a")
	b := h.BeginSpan("b")
	a.End()
	if got := h.CurrentSpan(); got != "b" {
		t.Fatalf("CurrentSpan after the older span ended = %q, want b", got)
	}
	b.End()
	if got := h.CurrentSpan(); got != "" {
		t.Fatalf("CurrentSpan after both ended = %q", got)
	}
}

func TestHubConcurrentRegisterEmit(t *testing.T) {
	h := NewHub()
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			remove := h.Register(ObserverFunc(func(Event) {
				mu.Lock()
				count++
				mu.Unlock()
			}))
			for j := 0; j < 100; j++ {
				h.Emit(Event{Kind: KindKernel, Name: "K"})
			}
			remove()
		}()
	}
	wg.Wait()
	if count == 0 {
		t.Fatal("no events observed")
	}
}

func TestRecorderRingBounded(t *testing.T) {
	r := NewRecorder(64)
	base := time.Now()
	for i := 0; i < 1000; i++ {
		r.Observe(Event{Kind: KindKernel, Name: "K", Start: base.Add(time.Duration(i) * time.Millisecond)})
	}
	if n := r.Len(); n > 64 {
		t.Fatalf("ring retained %d events, cap 64", n)
	}
	if r.Dropped() == 0 {
		t.Fatal("ring reported no drops after wraparound")
	}
	evs := r.Events(time.Time{})
	for i := 1; i < len(evs); i++ {
		if evs[i].Start.Before(evs[i-1].Start) {
			t.Fatal("events not chronological")
		}
	}
	// since-filtering drops the old half.
	cut := base.Add(990 * time.Millisecond)
	for _, ev := range r.Events(cut) {
		if ev.Start.Before(cut) {
			t.Fatal("since filter leaked an old event")
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestChromeTraceRoundTripsThroughSchema(t *testing.T) {
	r := NewRecorder(0)
	now := time.Now()
	r.Observe(Event{Kind: KindKernel, Name: "Conv2D", Start: now, DurMS: 2.5,
		Bytes: 1024, TotalBytes: 4096, Backend: "webgl",
		InputShapes: [][]int{{1, 96, 96, 3}}, OutputShapes: [][]int{{1, 48, 48, 8}},
		KernelMS: 0.8, HasKernelMS: true, Span: "mobilenet:in->out"})
	r.Observe(Event{Kind: KindUpload, Name: "upload", Start: now, DurMS: 0.1, Bytes: 512})
	r.Observe(Event{Kind: KindDownload, Name: "download", Start: now, DurMS: 0.2, Bytes: 256})
	r.Observe(Event{Kind: KindScope, Name: "tidy", Start: now, NumTensors: 7, TotalBytes: 2048})
	r.Observe(Event{Kind: KindSpan, Name: "mobilenet:in->out", Start: now, DurMS: 12})
	r.Observe(Event{Kind: KindFence, Name: "fenceSync", Start: now, DurMS: 0.05, Backend: "webgl"})
	r.Observe(Event{Kind: KindPageOut, Name: "page_out", Start: now, Bytes: 9999, Backend: "webgl"})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace fails own schema: %v\n%s", err, buf.String())
	}
	// Sanity: the kernel event survived with its args.
	var obj struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj.TraceEvents) != 7 {
		t.Fatalf("trace has %d events, want 7", len(obj.TraceEvents))
	}
	found := false
	for _, te := range obj.TraceEvents {
		if te["name"] == "Conv2D" {
			found = true
			args := te["args"].(map[string]any)
			if args["span"] != "mobilenet:in->out" {
				t.Fatalf("kernel args = %v", args)
			}
			if !strings.Contains(args["output_shapes"].(string), "48") {
				t.Fatalf("output shapes lost: %v", args)
			}
		}
	}
	if !found {
		t.Fatal("Conv2D event missing from trace")
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{{`,
		"empty":           `{"traceEvents": []}`,
		"no phase":        `[{"name":"x","ts":1,"pid":1,"tid":1}]`,
		"unknown phase":   `[{"name":"x","ph":"Z","ts":1,"pid":1,"tid":1}]`,
		"no name":         `[{"ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]`,
		"negative ts":     `[{"name":"x","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}]`,
		"X without dur":   `[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]`,
		"missing pid/tid": `[{"name":"x","ph":"X","ts":1,"dur":1}]`,
		"C without args":  `[{"name":"x","ph":"C","ts":1,"pid":1,"tid":1}]`,
	}
	for name, in := range cases {
		if err := ValidateChromeTrace([]byte(in)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// A valid bare array passes.
	ok := `[{"name":"x","ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("valid bare array rejected: %v", err)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := NewStats()
	now := time.Now()
	for i := 0; i < 10; i++ {
		s.Observe(Event{Kind: KindKernel, Name: "MatMul", DurMS: float64(i + 1), Bytes: 100, Span: "m:a->b", Start: now})
	}
	s.Observe(Event{Kind: KindKernel, Name: "Relu", DurMS: 0.5, Start: now})
	s.Observe(Event{Kind: KindUpload, Bytes: 64, DurMS: 0.1, Start: now})
	s.Observe(Event{Kind: KindDownload, Bytes: 32, DurMS: 0.1, Start: now})
	s.Observe(Event{Kind: KindScope, Name: "tidy", NumTensors: 3, TotalBytes: 300, Start: now})

	ks := s.Kernels()
	if len(ks) != 2 || ks[0].Name != "MatMul" {
		t.Fatalf("kernels = %+v", ks)
	}
	mm := ks[0]
	if mm.Count != 10 || mm.TotalMS != 55 || mm.BytesAdded != 1000 {
		t.Fatalf("MatMul agg = %+v", mm)
	}
	if mm.P50MS < 1 || mm.P50MS > mm.P95MS || mm.P95MS > 10 {
		t.Fatalf("percentiles p50=%v p95=%v", mm.P50MS, mm.P95MS)
	}
	if spans := s.Spans(); len(spans) != 1 || spans[0] != "m:a->b" {
		t.Fatalf("spans = %v", spans)
	}
	sk := s.KernelsForSpan("m:a->b")
	if len(sk) != 1 || sk[0].Count != 10 {
		t.Fatalf("span kernels = %+v", sk)
	}
	tr := s.Transfers()
	if tr.UploadCount != 1 || tr.UploadBytes != 64 || tr.DownloadCount != 1 {
		t.Fatalf("transfers = %+v", tr)
	}
	tl := s.Timeline()
	if len(tl) != 1 || tl[0].NumTensors != 3 || tl[0].NumBytes != 300 {
		t.Fatalf("timeline = %+v", tl)
	}
	s.Reset()
	if len(s.Kernels()) != 0 || len(s.Timeline()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestDistributionQuantiles(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	qs := d.Quantiles(0, 0.5, 0.95, 1)
	if qs[0] != 1 || qs[3] != 100 {
		t.Fatalf("min/max = %v", qs)
	}
	if qs[1] < 45 || qs[1] > 55 {
		t.Fatalf("p50 = %v", qs[1])
	}
	if qs[2] < 90 || qs[2] > 100 {
		t.Fatalf("p95 = %v", qs[2])
	}
	if d.Count() != 100 || d.Total() != 5050 {
		t.Fatalf("count=%d total=%v", d.Count(), d.Total())
	}
	// Window stays bounded.
	for i := 0; i < distributionWindow*3; i++ {
		d.Observe(1)
	}
	if got := d.Quantiles(0.99)[0]; got != 1 {
		t.Fatalf("window not sliding: p99=%v", got)
	}
}
