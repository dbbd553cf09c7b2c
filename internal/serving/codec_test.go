package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bufpool"
)

// oracleDecode is the decode pipeline the codec replaced, kept as the
// reference: encoding/json into raw instances, each into an any tree,
// each tree through ParseInstance.
func oracleDecode(body []byte) ([]Instance, error) {
	var req struct {
		Instances []json.RawMessage `json:"instances"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if len(req.Instances) == 0 {
		return nil, errors.New("no instances in request")
	}
	insts := make([]Instance, len(req.Instances))
	for i, raw := range req.Instances {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		inst, err := ParseInstance(v)
		if err != nil {
			return nil, err
		}
		insts[i] = inst
	}
	return insts, nil
}

// decodePredictBody runs the codec's decoder over a body held in memory,
// as Server.decodePredict does over the one it has read.
func decodePredictBody(data []byte) ([]Instance, error) {
	d := decoderPool.Get().(*predictDecoder)
	defer d.release()
	d.data = data
	return d.decode()
}

// checkAgainstOracle decodes body both ways and fails unless they agree
// on accept/reject and, on accept, on every shape and every value bit.
func checkAgainstOracle(t *testing.T, body []byte) ([]Instance, error) {
	t.Helper()
	want, wantErr := oracleDecode(body)
	got, gotErr := decodePredictBody(body)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject differs on %.200q:\n  oracle: %v\n  codec:  %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return nil, gotErr
	}
	if len(got) != len(want) {
		t.Fatalf("%.200q: %d instances, oracle has %d", body, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Shape, want[i].Shape) {
			t.Fatalf("%.200q: instance %d shape %v, oracle %v", body, i, got[i].Shape, want[i].Shape)
		}
		if len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("%.200q: instance %d has %d values, oracle %d", body, i, len(got[i].Values), len(want[i].Values))
		}
		for j, w := range want[i].Values {
			if g := got[i].Values[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%.200q: instance %d value %d = %v (%#x), oracle %v (%#x)",
					body, i, j, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
	return got, nil
}

// benchImageBody is a seeded 96×96×3 predict body built the way
// bench/inputs.go builds the serve_http payload: uniform [0,1) float32s
// at shortest round-trip precision, ~310 KB.
func benchImageBody(seed int64) []byte {
	const side = 96
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 0, 12*side*side*3)
	buf = append(buf, `{"instances":[[`...)
	for y := 0; y < side; y++ {
		if y > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for x := 0; x < side; x++ {
			if x > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for c := 0; c < 3; c++ {
				if c > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, float64(rng.Float32()), 'g', -1, 32)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, ']')
	}
	return append(buf, `]]}`...)
}

// FuzzPredictCodec is the differential test: on any input the codec and
// the encoding/json oracle agree. The committed seeds under
// testdata/fuzz/FuzzPredictCodec run on every plain `go test`.
func FuzzPredictCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
	})
}

// TestPredictCodecDecode pins what the codec accepts and rejects (the
// oracle agreeing on each), so the differential test cannot pass by both
// sides rejecting everything.
func TestPredictCodecDecode(t *testing.T) {
	accept := []struct {
		body  string
		shape []int
		vals  []float32
	}{
		{`{"instances":[1]}`, nil, []float32{1}},
		{` { "instances" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } `, []int{2}, []float32{1, 2}},
		{`{"instances":[[[1,2],[3,4]]]}`, []int{2, 2}, []float32{1, 2, 3, 4}},
		{`{"instances":[[]]}`, []int{0}, []float32{}},
		{`{"instances":[[[],[]]]}`, []int{2, 0}, []float32{}},
		{`{"instances":[[-0, 1e2, 2.5E-1, 0.1]]}`, []int{4}, []float32{float32(math.Copysign(0, -1)), 100, 0.25, 0.1}},
		{`{"instances":[1e39]}`, nil, []float32{float32(math.Inf(1))}},
		{`{"instances":[1e-400]}`, nil, []float32{0}},
		{`{"instances":[123456789012345678901234567890]}`, nil, []float32{1.2345679e29}},
		{`{"x":{"instances":[["a"]],"s":"\"\\\u00e9\n"},"y":[1e999,null,true],"instances":[[7]]}`, []int{1}, []float32{7}},
		{`{"instances":[["ragged",[1]]],"instances":[[8]]}`, []int{1}, []float32{8}},
		{`{"INSTANCES":[[9]]}`, []int{1}, []float32{9}},
		{`{"\u0069nstanceſ":[[10]]}`, []int{1}, []float32{10}},
		{`{"instances":null,"instances":[[11]]}`, []int{1}, []float32{11}},
	}
	for _, tc := range accept {
		insts, err := checkAgainstOracle(t, []byte(tc.body))
		if err != nil {
			t.Errorf("%s: rejected: %v", tc.body, err)
			continue
		}
		got := insts[0]
		if !slices.Equal(got.Shape, tc.shape) || len(got.Values) != len(tc.vals) {
			t.Errorf("%s: got shape %v, %d values; want %v, %d", tc.body, got.Shape, len(got.Values), tc.shape, len(tc.vals))
			continue
		}
		for i, w := range tc.vals {
			if math.Float32bits(got.Values[i]) != math.Float32bits(w) {
				t.Errorf("%s: value %d = %v, want %v", tc.body, i, got.Values[i], w)
			}
		}
	}

	// The serve_http payload itself, on a few seeds.
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := checkAgainstOracle(t, benchImageBody(seed)); err != nil {
			t.Errorf("bench image body, seed %d: rejected: %v", seed, err)
		}
	}

	deep := func(n int) string {
		return `{"instances":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	if _, err := checkAgainstOracle(t, []byte(deep(maxJSONDepth-1))); err != nil {
		t.Errorf("nesting at encoding/json's depth limit rejected: %v", err)
	}
	reject := []string{
		``, `null`, `[1]`, `{}`, `{"instances":[]}`, `{"instances":null}`, `{"instances":5}`,
		`{"instances":{"a":1}}`, `{"instances":5,"instances":[1]}`, `{"instances":[1],"instances":null}`,
		`{"instances":[[[1,2],[3]]]}`, `{"instances":[[1,[2]]]}`, `{"instances":[[[1],2]]}`,
		`{"instances":[[[],[1]]]}`, `{"instances":[[[[]],[[[]]]]]}`, `{"instances":[[[],5]]}`,
		`{"instances":[null]}`, `{"instances":[["a"]]}`, `{"instances":[[true]]}`, `{"instances":[{"b":1}]}`,
		`{"instances":[1e400]}`, `{"instances":[-1e400]}`,
		`{"instances":[01]}`, `{"instances":[1.]}`, `{"instances":[.5]}`, `{"instances":[1e]}`,
		`{"instances":[+1]}`, `{"instances":[-]}`, `{"instances":[1,]}`, `{"instances":[[1,]]}`,
		`{"instances":[1]`, `{"instances":[1]} x`, `{"instances":[1]}{}`, `{"instances":[1],}`,
		`{"instances":[1] "a":2}`, `{"a":"\x"}`, `{"a":"\u12g4","instances":[1]}`, "{\"a\":\"\t\",\"instances\":[1]}",
		`{"a":tru,"instances":[1]}`, `{"a":[1,2,"instances":[1]}`, `{instances:[1]}`,
		`{"instances":[["a" 1]],"instances":[1]}`,
		deep(maxJSONDepth),
	}
	for _, body := range reject {
		if _, err := checkAgainstOracle(t, []byte(body)); err == nil {
			t.Errorf("%.80s: accepted", body)
		}
	}
}

// TestPredictCodecNumbers sweeps the number kernel against
// strconv.ParseFloat across the fast path's boundaries: 2^53, the ±22
// exponent window, 19 and 20 digit mantissas, subnormals and overflow.
func TestPredictCodecNumbers(t *testing.T) {
	texts := []string{
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993e22", "9007199254740991e-22",
		"1e22", "1e23", "1e-22", "1e-23", "123456789e15", "1.7976931348623157e308", "1.7976931348623159e308",
		"4.9e-324", "2.4703282292062327e-324", "2.2250738585072014e-308", "1e-45", "1.401298464324817e-45", "7e-46",
		"3.4028235e38", "3.4028236e38", "0.000001", "0.0000001", "1.0000000000000000000", "12345678901234567890",
		"1234567890123456789", "0.30000000000000004", "0e999", "-0e-999", "0.0", "-0.0", "1E+2", "1e+00000000000000000002",
		"1e99999999999999999999", "0.1e-99999999999999999999", "8.5", "16777217", "0.333333343", "5e-324", "100000000000000000000000",
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0:
			texts = append(texts, strconv.FormatFloat(float64(rng.Float32()), 'g', -1, 32))
		case 1:
			texts = append(texts, strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)), 'g', -1, 64))
		case 2:
			texts = append(texts, strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'e', rng.Intn(25), 64))
		case 3:
			texts = append(texts, fmt.Sprintf("%d.%de%d", rng.Int63n(1e6), rng.Int63(), rng.Intn(50)-25))
		}
	}
	for _, text := range texts {
		if strings.ContainsAny(text, "NI") { // NaN, Inf from random bits
			continue
		}
		want, wantErr := strconv.ParseFloat(text, 64)
		got, end, gotErr := parseNumber([]byte(text+","), 0)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%s: strconv error %v, codec error %v", text, wantErr, gotErr)
			continue
		}
		if wantErr == nil && (math.Float64bits(got) != math.Float64bits(want) || end != len(text)) {
			t.Errorf("%s: got %v (%#x) ending at %d, want %v (%#x)", text, got, math.Float64bits(got), end, want, math.Float64bits(want))
		}
	}
}

// goldenOutputs are prediction values across every formatting regime of
// a float32 in encoding/json: the 1e-6 and 1e21 exponent cutoffs, one-
// and two-digit negative exponents, zero, negative zero, subnormals, max.
func goldenOutputs() []Instance {
	vals := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 0.1, 1e-7, 9.9999994e-7, 1e-6, 1.0000001e-6, 1e-5, 0.001,
		123456.79, 1e20, 9.999999e20, 1e21, 1.0000001e21, 3.4028235e38, -3.4028235e38, 1e-10, 1.5e-9, 1e-38,
		1e-45, -2.5e-7, 16777216, 0.333333343, 1e9, 1e10,
	}
	for e := -7; e <= 21; e++ {
		vals = append(vals, float32(math.Pow(10, float64(e))), -float32(1.2345678*math.Pow(10, float64(e))))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	finite := vals[:0]
	for _, v := range vals {
		if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			finite = append(finite, v)
		}
	}
	n := len(finite) / 6 * 6
	return []Instance{
		{Values: finite[:n], Shape: []int{n / 6, 3, 2}},
		{Values: finite[:1]},
		{Values: finite[:5], Shape: []int{5}},
		{Values: []float32{}, Shape: []int{0}},
		{Values: []float32{}, Shape: []int{2, 0}},
	}
}

// TestPredictCodecEncodeGolden proves the encoder writes the bytes
// json.Encoder wrote for the Render() trees.
func TestPredictCodecEncodeGolden(t *testing.T) {
	outs := goldenOutputs()
	for n := 1; n <= len(outs); n++ {
		preds := make([]any, n)
		for i, out := range outs[:n] {
			preds[i] = out.Render()
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"predictions": preds}); err != nil {
			t.Fatal(err)
		}
		got, err := appendPredictions(nil, outs[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			i := 0
			for i < len(got) && i < want.Len() && got[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("%d instances: encoder differs from encoding/json at byte %d:\n  got  …%.60s\n  want …%.60s",
				n, i, got[max(0, i-20):], want.Bytes()[max(0, i-20):])
		}
	}
	single, err := json.Marshal(map[string]any{"predictions": []any{outs[0].Render()}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := appendPredictions(nil, outs[:1]); !bytes.Equal(got, append(single, '\n')) {
		t.Fatal("encoder differs from json.Marshal on a single prediction")
	}

	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := appendPredictions(nil, []Instance{{Values: []float32{1, bad}, Shape: []int{2}}}); err == nil {
			t.Errorf("encoding %v: no error", bad)
		}
	}
	if _, err := appendPredictions(nil, []Instance{{Values: []float32{1}, Shape: []int{2}}}); err == nil {
		t.Error("an instance with fewer values than its shape was encoded")
	}
}

// TestPredictCodecAllocs is the allocation budget: a 96×96×3 decode
// allocates Values, Shape and the instance slice (≤4 with pool slack),
// and encoding a 1000-class prediction into a pooled buffer allocates
// nothing (≤1).
func TestPredictCodecAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector, so the count measures the detector")
	}
	body := benchImageBody(1)
	if _, err := decodePredictBody(body); err != nil { // warm the pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := decodePredictBody(body); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("decoding a 96×96×3 body: %v allocs, want ≤ 4", n)
	}

	out := []Instance{classPrediction(1000)}
	buf := make([]byte, 0, 32<<10)
	if n := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = appendPredictions(buf[:0], out); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("encoding a 1000-class prediction: %v allocs, want ≤ 1", n)
	}
}

// classPrediction is a seeded softmax-like output over n classes.
func classPrediction(n int) Instance {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = rng.Float32() / float32(n)
	}
	return Instance{Values: vals, Shape: []int{n}}
}

// BenchmarkPredictCodec times the two codec directions on the serve_http
// payload: one 96×96×3 request body in, one 1000-class prediction out.
func BenchmarkPredictCodec(b *testing.B) {
	b.Run("decode", func(b *testing.B) {
		body := benchImageBody(1)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := decodePredictBody(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		out := []Instance{classPrediction(1000)}
		buf, err := appendPredictions(nil, out)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = appendPredictions(buf[:0], out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// codecTestServer serves one echo model and a one-step graph over it.
func codecTestServer(t *testing.T, run runner) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	m := stubModel("echo", Config{MaxBatchSize: 4, Workers: 1, QueueSize: 64}, run)
	t.Cleanup(m.unload)
	reg.install(m)
	api := NewServer(reg)
	t.Cleanup(api.Close)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	if err := api.RegisterGraph(GraphSpec{Name: "flow", Root: &GraphNode{Kind: NodeModel, Model: "echo"}}); err != nil {
		t.Fatal(err)
	}
	return api, srv
}

// TestPredictCodecHTTPStatus covers the wire-level status codes on both
// predict endpoints: 413 for a body over the limit (400 before the
// codec), 400 for bytes after the request object (accepted before), and
// the unchanged 400s and 200.
func TestPredictCodecHTTPStatus(t *testing.T) {
	_, srv := codecTestServer(t, runnerFunc(echoRunner))
	oversize := `{"pad":"` + strings.Repeat("x", maxBodyBytes) + `","instances":[[1]]}`
	cases := []struct {
		name, body string
		want       int
	}{
		{"ok", `{"instances":[[1,2]]}`, http.StatusOK},
		{"trailing whitespace", "{\"instances\":[[1,2]]}\n \t\r\n", http.StatusOK},
		{"trailing garbage", `{"instances":[[1,2]]} garbage`, http.StatusBadRequest},
		{"trailing value", `{"instances":[[1,2]]}{"instances":[[3]]}`, http.StatusBadRequest},
		{"oversize body", oversize, http.StatusRequestEntityTooLarge},
		{"truncated", `{"instances":[[1,2]`, http.StatusBadRequest},
		{"ragged instance", `{"instances":[[[1,2],[3]]]}`, http.StatusBadRequest},
		{"string leaf", `{"instances":[["a"]]}`, http.StatusBadRequest},
		{"no instances", `{"inputs":[[1]]}`, http.StatusBadRequest},
		{"out of range", `{"instances":[[1e400]]}`, http.StatusBadRequest},
	}
	for _, path := range []string{"/v1/models/echo:predict", "/v1/graphs/flow:predict"} {
		for _, tc := range cases {
			code, data, _ := postJSON(t, srv.URL+path, tc.body, nil)
			if code != tc.want {
				t.Errorf("%s %s: status %d, want %d: %.200s", path, tc.name, code, tc.want, data)
			}
			var reply map[string]any
			if err := json.Unmarshal(data, &reply); err != nil {
				t.Errorf("%s %s: response is not JSON: %v: %.200s", path, tc.name, err, data)
			} else if _, isErr := reply["error"]; isErr == (code == http.StatusOK) {
				t.Errorf("%s %s: status %d with body %.200s", path, tc.name, code, data)
			}
		}
		// The server must still be serving after every rejected body.
		if code, data, _ := postJSON(t, srv.URL+path, `{"instances":[[1,2]]}`, nil); code != http.StatusOK ||
			string(data) != "{\"predictions\":[[1,2]]}\n" {
			t.Errorf("%s after rejects: status %d body %q", path, code, data)
		}
	}
}

// TestPredictCodecNonFiniteOutput: a model that produces NaN is a 500
// with a JSON error naming it — not the 200 with an empty body that
// json.Encoder failing after WriteHeader used to leave.
func TestPredictCodecNonFiniteOutput(t *testing.T) {
	nan := runnerFunc(func(batch []Instance) ([]Instance, error) {
		out := make([]Instance, len(batch))
		for i := range batch {
			out[i] = Instance{Values: []float32{0.5, float32(math.NaN())}, Shape: []int{2}}
		}
		return out, nil
	})
	_, srv := codecTestServer(t, nan)
	for path, producer := range map[string]string{
		"/v1/models/echo:predict": `model "echo"`,
		"/v1/graphs/flow:predict": `graph "flow"`,
	} {
		code, data, _ := postJSON(t, srv.URL+path, `{"instances":[[1,2]]}`, nil)
		if code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500: %q", path, code, data)
		}
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &reply); err != nil || !strings.Contains(reply.Error, producer) || !strings.Contains(reply.Error, "NaN") {
			t.Errorf("%s: error body %q does not name %s and NaN (%v)", path, data, producer, err)
		}
	}
}

// TestPredictCodecGraphStageMetrics: the graph endpoint reports its own
// decode and encode stages on /metrics, under the graph/ model label.
func TestPredictCodecGraphStageMetrics(t *testing.T) {
	_, srv := codecTestServer(t, runnerFunc(echoRunner))
	if code, data, _ := postJSON(t, srv.URL+"/v1/graphs/flow:predict", `{"instances":[[1,2]]}`, nil); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	_, metrics := get(t, srv.URL+"/metrics", nil)
	for _, stage := range []string{"decode", "encode"} {
		if series := fmt.Sprintf("serving_stage_latency_ms{model=%q,stage=%q,", "graph/flow", stage); !strings.Contains(metrics, series) {
			t.Errorf("/metrics has no %s…}", series)
		}
	}
}
