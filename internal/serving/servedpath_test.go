package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/tensor"
)

// TestServedExecuteAllocBudget asserts which path serves a request: behind
// NewServer — trace recorder and kernel stats attached to the hub, as
// tfjs-serve runs — a predict executes the same direct-dispatch plan the
// allocation gate and planvet cover, and that plan still reports every
// kernel. The budget is the evidence: the handle-tracking interpreter that
// used to take over whenever an observer was attached cost ~1000
// allocations per MobileNet execute; the plan costs ~50 unobserved and
// under 320 (278 measured) with the server's two observers recording 31
// kernel events.
func TestServedExecuteAllocBudget(t *testing.T) {
	store := buildMobileNetStore(t, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mobilenet", store, ModelOptions{Backend: "node"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()
	if !core.Global().Telemetry().Active() {
		t.Fatal("NewServer attached no observer to the engine's hub")
	}

	img := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	for i := range img.Values {
		img.Values[i] = float32(i%255) / 255
	}
	body, err := json.Marshal(map[string]any{"instances": []any{img.Render()}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/models/mobilenet:predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, data)
	}

	// The plan executor emits the kernel events itself: /metrics keeps its
	// per-kernel series for the model, under the same names.
	_, metrics := get(t, srv.URL+"/metrics", nil)
	for kernel, count := range map[string]int{
		"FusedConv2D": 14, "FusedDepthwiseConv2dNative": 13, "Transpose": 1, "Mean": 1, "_FusedMatMul": 1, "Softmax": 1,
	} {
		line := fmt.Sprintf("serving_kernel_invocations_total{model=%q,kernel=%q} %d\n", "mobilenet", kernel, count)
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics after one HTTP predict is missing %q", strings.TrimSpace(line))
		}
	}

	if bufpool.RaceEnabled {
		t.Skip("allocation budget: sync.Pool drops entries at random under -race")
	}
	gm := m.sched.run.(*graphRunner).model
	e := gm.Engine()
	var x *tensor.Tensor
	e.RunExclusive(func() { x = e.MakeTensor(img.Values, []int{1, 96, 96, 3}, tensor.Float32) })
	defer e.RunExclusive(func() { x.Dispose() })
	feeds := map[string]*tensor.Tensor{gm.Graph().Inputs[0]: x}
	execute := func() {
		outs, err := gm.Execute(feeds)
		if err != nil {
			t.Fatal(err)
		}
		e.RunExclusive(func() {
			for _, out := range outs {
				out.Dispose()
			}
		})
	}
	for i := 0; i < 3; i++ { // warm-up: pool fill, plan caches, observer maps
		execute()
	}
	allocs := testing.AllocsPerRun(10, execute)
	t.Logf("observed Model.Execute behind NewServer: %.0f allocs/op", allocs)
	if allocs > 320 {
		t.Fatalf("observed Model.Execute allocates %.0f/op behind NewServer, budget 320: the served path is not the direct-dispatch plan", allocs)
	}
}
