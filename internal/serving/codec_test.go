package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
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

// decodePredictBody runs a pooled decoder over a body held in memory, as
// Server.decodePredict does over the one it has read. The instances are
// d's: the caller releases d once it is done with them.
func decodePredictBody(data []byte) (*predictDecoder, []Instance, error) {
	d := decoderPool.Get().(*predictDecoder)
	d.data = data
	insts, err := d.decode()
	return d, insts, err
}

// checkAgainstOracle decodes body both ways, with a pooled decoder, and
// fails unless they agree on accept/reject and, on accept, on every shape
// and every value bit. The instances it returns are copies.
func checkAgainstOracle(t *testing.T, body []byte) ([]Instance, error) {
	t.Helper()
	d := decoderPool.Get().(*predictDecoder)
	defer d.release()
	insts, err := checkDecoder(t, d, body)
	copies := make([]Instance, len(insts))
	for i, inst := range insts {
		copies[i] = inst.clone()
	}
	return copies, err
}

// checkDecoder is checkAgainstOracle on the decoder d, which may hold what
// it decoded before. The instances it returns are d's.
func checkDecoder(t *testing.T, d *predictDecoder, body []byte) ([]Instance, error) {
	t.Helper()
	want, wantErr := oracleDecode(body)
	d.data = body
	got, gotErr := d.decode()
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
		if len(got[i].Values) != cap(got[i].Values) || len(got[i].Shape) != cap(got[i].Shape) {
			t.Fatalf("%.200q: instance %d's slices are not capped: an append would write into its neighbour", body, i)
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

// reuseBodies are bodies that leave a decoder's arenas in every state a
// later body must not see: several instances of two shapes, a repeated
// "instances" key over a longer array, an element that fails part-way
// through, and a rejected body.
var reuseBodies = []string{
	`{"instances":[[[1,2,3],[4,5,6]],[[7,8,9],[10,11,12]]]}`,
	`{"instances":[[1,2,3,4,5,6,7,8],[9,10,11,12,13,14,15,16]],"instances":[[17,18]]}`,
	`{"instances":[[1,2],[3,4,[5]],[6,7]],"instances":[[[8],[9]]]}`,
	`{"instances":[[[1,2],[3,4]],[[5,6],[7]]]}`,
	`{"instances":[1,2,3],"instances":null}`,
}

// FuzzPredictCodec is the differential test: on any input the codec and
// the encoding/json oracle agree, on a fresh decoder and on one reused
// across bodies — body, then every reuse body, then body again. The
// committed seeds under testdata/fuzz/FuzzPredictCodec and reuseBodies run
// on every plain `go test`.
func FuzzPredictCodec(f *testing.F) {
	for _, body := range reuseBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
		d := new(predictDecoder)
		checkDecoder(t, d, body)
		for _, other := range reuseBodies {
			checkDecoder(t, d, []byte(other))
		}
		checkDecoder(t, d, body)
	})
}

// TestReusedDecoderMatchesOracle: one decoder decodes a run of bodies — the
// serve_http payload, repeated "instances" keys, ragged elements before and
// after good ones, rejected bodies — and every decode agrees with the
// oracle, so nothing a body leaves in the arenas reaches the next one.
func TestReusedDecoderMatchesOracle(t *testing.T) {
	bodies := [][]byte{benchImageBody(1)}
	for _, body := range reuseBodies {
		bodies = append(bodies, []byte(body))
	}
	bodies = append(bodies,
		[]byte(`{"instances":[["ragged",[1]]],"instances":[[8]]}`),
		[]byte(`{"instances":[[1,[2]],[3,4]],"instances":[[5,6],[7,8]]}`),
		[]byte(`{"instances":[[1,2],[[3],[4]],[5,6]]}`),
		benchImageBody(2),
		[]byte(`{"instances":[[1,2]],"instances":[[3,4],[5,6]],"x":[1,2]}`),
	)
	d := new(predictDecoder)
	for round := 0; round < 2; round++ {
		for _, body := range bodies {
			checkDecoder(t, d, body)
		}
	}
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

// TestPredictCodecAllocs is the allocation budget: a warm 96×96×3 decode
// allocates nothing, its values and shape going to the pooled decoder's
// arenas (≤1 with pool slack; 4 while each decode allocated Values, Shape
// and the instance slice), and encoding a 1000-class prediction into a
// pooled buffer allocates nothing (≤1).
func TestPredictCodecAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector, so the count measures the detector")
	}
	body := benchImageBody(1)
	decode := func() {
		d, _, err := decodePredictBody(body)
		if err != nil {
			t.Fatal(err)
		}
		d.release()
	}
	decode() // warm the pool
	if n := testing.AllocsPerRun(20, decode); n > 1 {
		t.Errorf("decoding a 96×96×3 body: %v allocs, want ≤ 1", n)
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
			d, _, err := decodePredictBody(body)
			if err != nil {
				b.Fatal(err)
			}
			d.release()
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

// ownershipServer serves m behind NewServer, and sends on handled each time
// a handler has returned: from then on, a decoder that handler released is
// in the pool for the next request.
func ownershipServer(t *testing.T, models ...*Model) (reg *Registry, url string, handled <-chan struct{}) {
	t.Helper()
	reg = NewRegistry()
	for _, m := range models {
		t.Cleanup(m.unload)
		reg.install(m)
	}
	api := NewServer(reg)
	t.Cleanup(api.Close)
	done := make(chan struct{}, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		done <- struct{}{}
	}))
	t.Cleanup(srv.Close)
	return reg, srv.URL, done
}

// ramp is n values from start in steps of 0.25, all exact in a float32 and
// in JSON, and the predict body carrying them as one instance.
func ramp(start float32, n int) ([]float32, string) {
	vals := make([]float32, n)
	body := []byte(`{"instances":[[`)
	for i := range vals {
		vals[i] = start + 0.25*float32(i)
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, float64(vals[i]), 'g', -1, 32)
	}
	return vals, string(append(body, "]]}"...))
}

// post sends a predict body and returns the status, for goroutines that
// must not call t.Fatal.
func post(ctx context.Context, url, body string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// onePool runs f with one P, so that a decoder one handler puts back is the
// one the next handler's Get returns (sync.Pool keeps a Put on its P): a
// decoder released too early is then reused, not merely reusable.
func onePool(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// blockingRunner holds its first batch until proceed is closed, then sends
// a copy of the batch's first values on got. It echoes every batch.
func blockingRunner(inRunner, proceed chan struct{}, got chan<- []float32) runnerFunc {
	var calls atomic.Int32
	return func(batch []Instance) ([]Instance, error) {
		if calls.Add(1) == 1 {
			close(inRunner)
			<-proceed
			got <- slices.Clone(batch[0].Values)
		}
		return batch, nil
	}
}

// sameValues fails unless got and want are the same float32 bits.
func sameValues(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("%s: value %d = %v, want %v: another request's values were decoded over it", what, i, got[i], w)
		}
	}
}

// TestAbandonedRequestKeepsItsValues: request A's instance is in the
// runner's hands when A's client goes away, and request B, with other
// values, is decoded while the runner still holds A's. A's decoder must
// not have gone back to the pool with A's handler: the runner reads A's
// values, not B's. B is then served its own.
func TestAbandonedRequestKeepsItsValues(t *testing.T) {
	inRunner, proceed, got := make(chan struct{}), make(chan struct{}), make(chan []float32, 1)
	m := stubModel("echo", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 8}, blockingRunner(inRunner, proceed, got))
	_, url, handled := ownershipServer(t, m)
	url += "/v1/models/echo:predict"
	wantA, bodyA := ramp(1, 512)
	_, bodyB := ramp(-1000, 512)

	onePool(func() {
		ctx, cancel := context.WithCancel(context.Background())
		aDone := make(chan error, 1)
		go func() {
			_, err := post(ctx, url, bodyA)
			aDone <- err
		}()
		<-inRunner
		cancel()
		if err := <-aDone; err == nil {
			t.Error("request A was answered after its client cancelled it")
		}
		<-handled

		bDone := make(chan error, 1)
		go func() {
			code, err := post(context.Background(), url, bodyB)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			bDone <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); m.sched.QueueDepth() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("request B never reached the queue")
			}
		}
		close(proceed)
		sameValues(t, "the abandoned request's instance", <-got, wantA)
		if err := <-bDone; err != nil {
			t.Errorf("request B: %v", err)
		}
	})
}

// TestShadowKeepsItsValues: a shadow prediction outlives the handler that
// started it. The primary answers request X and X's decoder goes back to
// the pool while the shadow still holds X's instance; request Y, with
// other values, is then decoded. The shadow model must receive X's values
// bit for bit.
func TestShadowKeepsItsValues(t *testing.T) {
	inRunner, proceed, got := make(chan struct{}), make(chan struct{}), make(chan []float32, 1)
	v1 := stubModel("sh@v1", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 8}, runnerFunc(echoRunner))
	v2 := stubModel("sh@v2", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 8}, blockingRunner(inRunner, proceed, got))
	reg, url, handled := ownershipServer(t, v1, v2)
	if err := reg.SetShadow("sh", "v2"); err != nil {
		t.Fatal(err)
	}
	url += "/v1/models/sh:predict"
	wantX, bodyX := ramp(3, 512)
	_, bodyY := ramp(-2000, 512)

	onePool(func() {
		for _, body := range []string{bodyX, bodyY} {
			if code, err := post(context.Background(), url, body); err != nil || code != http.StatusOK {
				t.Fatalf("predict: status %d, %v", code, err)
			}
			<-handled
			if body == bodyX {
				<-inRunner
			}
		}
		close(proceed)
		sameValues(t, "the shadow's instance", <-got, wantX)
	})
}

// TestReleaseCountsInstances: a body of many scalars is small, and so are
// its values, but its []Instance is not. The decoder holds more than
// poolKeepBytes and does not go back to the pool.
func TestReleaseCountsInstances(t *testing.T) {
	const n = 1 << 17
	body := append([]byte(`{"instances":[0`), bytes.Repeat([]byte(",0"), n-1)...)
	body = append(body, "]}"...)
	d := new(predictDecoder)
	d.data = body
	insts, err := d.decode()
	if err != nil || len(insts) != n {
		t.Fatalf("decoded %d instances, %v; want %d", len(insts), err, n)
	}
	if len(body) > poolKeepBytes || 4*cap(d.vals) > poolKeepBytes {
		t.Fatal("the body or its values alone pass poolKeepBytes: the test shows nothing")
	}
	if held := d.heldBytes(); held <= poolKeepBytes {
		t.Fatalf("decoder of %d instances holds %d bytes by its count, want > %d", n, held, poolKeepBytes)
	}
	onePool(func() {
		d.release()
		if decoderPool.Get().(*predictDecoder) == d {
			t.Error("a decoder past poolKeepBytes went back to the pool")
		}
	})
}

// TestReleaseAfterErrors: a predict that failed gives its decoder back to
// the pool unless the error says Submit gave up on a request a worker may
// still gather; the rule sees through wrapping, and one abandoned request
// among several keeps the decoder out.
func TestReleaseAfterErrors(t *testing.T) {
	cases := []struct {
		errs []error
		back bool
	}{
		{[]error{&ShedError{Reason: "queue_full"}}, true},
		{[]error{&ShedError{Reason: "tenant_quota", Tenant: "free"}}, true},
		{[]error{ErrNotReady}, true},
		{[]error{&core.OpError{Kernel: "MatMul", Err: errors.New("shape mismatch")}}, true},
		{[]error{nil, errors.New("runner failed")}, true},
		{[]error{context.Canceled}, false},
		{[]error{fmt.Errorf("graph node root: %w", context.DeadlineExceeded)}, false},
		{[]error{ErrShuttingDown}, false},
		{[]error{ErrNotReady, nil, context.Canceled}, false},
	}
	onePool(func() {
		for _, c := range cases {
			d := new(predictDecoder)
			d.releaseAfter(c.errs...)
			back := decoderPool.Get().(*predictDecoder) == d
			// Under the race detector sync.Pool drops Puts at random, so
			// only a decoder that came back proves anything there.
			if back != c.back && (back || !bufpool.RaceEnabled) {
				t.Errorf("after %v: decoder back in the pool = %v, want %v", c.errs, back, c.back)
			}
		}
	})
}

// TestFailedPredictReleasesDecoder: a predict the runner answers with an
// error (a 400 here) is done with its instance, so its decoder goes back to
// the pool: the next Get is a decoder whose arena holds the request's
// values.
func TestFailedPredictReleasesDecoder(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	fail := runnerFunc(func(batch []Instance) ([]Instance, error) {
		return nil, &core.OpError{Kernel: "Conv2D", Err: errors.New("bad input shape")}
	})
	m := stubModel("fail", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 8}, fail)
	_, url, handled := ownershipServer(t, m)
	want, body := ramp(7, 512)
	onePool(func() {
		if code, err := post(context.Background(), url+"/v1/models/fail:predict", body); err != nil || code != http.StatusBadRequest {
			t.Fatalf("predict: status %d, %v; want 400", code, err)
		}
		<-handled
		d := decoderPool.Get().(*predictDecoder)
		if cap(d.vals) < len(want) || !slices.Equal(d.vals[:len(want)], want) {
			t.Error("the failed request's decoder did not go back to the pool")
		}
	})
}
