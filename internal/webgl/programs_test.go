package webgl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// TestCachedProgramIsTheCompiledOne: every entry of the range table, on
// every contract case, on packed, unpacked and half-float webgl, dispatched
// twice with no fence between. The first dispatch compiles the program and
// the second reuses it, and both outputs are Float32bits-equal to the
// reference kernel (on half floats: the reference on the fp16-rounded
// inputs, rounded). A case the reference rejects fails both dispatches
// with its words and compiles nothing; a call the body declines
// (ErrFallback) compiles nothing either. Then the next case of the kernel,
// another shape or attribute, compiles its own program.
func TestCachedProgramIsTheCompiledOne(t *testing.T) {
	cases := contractCases()
	for _, cfg := range []contractConfig{{packed: true, squeeze: true}, {squeeze: true}, {packed: true, half: true, squeeze: true}} {
		b := newContractBackend(t, cfg, 3)
		for _, k := range kernels.RangeKernels() {
			if len(cases[k.Name]) == 0 {
				t.Errorf("%s: no contract case", k.Name)
			}
			clear(b.programs.m)
			for _, c := range cases[k.Name] {
				where := fmt.Sprintf("%s/%s on %s", k.Name, c.label, cfg)
				want, wantErr := referenceOutput(k.Name, c, cfg.half)
				before := len(b.programs.m)
				inputs := make([]kernels.Input, len(c.inputs))
				for i, in := range c.inputs {
					inputs[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.shape, DType: in.dtype}
					b.Write(inputs[i].DataID, in.vals, in.shape, in.dtype)
				}
				var miss, hit kernels.TensorInfo
				missErr := b.kernelsTable[k.Name](inputs, c.attrs, &miss)
				key := string(appendKey(nil, k.Name, inputs, &c.attrs))
				compiled := b.programs.m[key].prog
				hitErr := b.kernelsTable[k.Name](inputs, c.attrs, &hit)
				switch {
				case wantErr != nil || missErr != nil:
					rejected := fmt.Sprint(missErr) == fmt.Sprint(wantErr) && fmt.Sprint(hitErr) == fmt.Sprint(wantErr)
					declined := wantErr == nil && errors.Is(missErr, kernels.ErrFallback) && errors.Is(hitErr, kernels.ErrFallback)
					if !rejected && !declined {
						t.Errorf("%s: errors %v then %v, want the reference's %v", where, missErr, hitErr, wantErr)
					}
					if n := len(b.programs.m); n != before {
						t.Errorf("%s: a failed call left %d compiled programs, %d before", where, n, before)
					}
				case hitErr != nil:
					t.Errorf("%s: the first dispatch ran, the second failed: %v", where, hitErr)
				default:
					if compiled == nil || len(b.programs.m) != before+1 {
						t.Errorf("%s: the first dispatch compiled no program of its own (%d programs, %d before)", where, len(b.programs.m), before)
					} else if b.programs.m[key].prog != compiled {
						t.Errorf("%s: the second dispatch compiled its program again", where)
					}
					checkOutput(t, b, where+", compiled", miss, want)
					checkOutput(t, b, where+", cached", hit, want)
				}
				for _, in := range inputs {
					b.DisposeData(in.DataID)
				}
			}
		}
	}
}

// checkOutput holds a dispatch's output to the reference's, bit for bit,
// and disposes it.
func checkOutput(t *testing.T, b *Backend, where string, out kernels.TensorInfo, want kernels.Buffer) {
	t.Helper()
	td := b.lookup(out.DataID)
	got := b.device.ReadPixels(td.tex)[:td.size]
	if fmt.Sprint(out.Shape) != fmt.Sprint(want.Shape) || out.DType != want.DType || len(got) != len(want.Data) {
		t.Errorf("%s: output %v %v, want %v %v", where, out.Shape, out.DType, want.Shape, want.DType)
		got = nil
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Errorf("%s: value %d = %g, reference %g", where, i, v, want.Data[i])
			break
		}
	}
	b.DisposeData(out.DataID)
}

// referenceOutput is the reference kernel's output on a contract case, on
// a half-float device what that device holds: the reference on the
// rounded inputs, rounded.
func referenceOutput(name string, c contractCase, half bool) (kernels.Buffer, error) {
	round := func(vals []float32) []float32 {
		out := make([]float32, len(vals))
		for i, v := range vals {
			out[i] = v
			if half {
				out[i] = glsim.RoundToFloat16(v)
			}
		}
		return out
	}
	bufs := make([]kernels.Buffer, len(c.inputs))
	for i, in := range c.inputs {
		bufs[i] = kernels.Buffer{Data: round(in.vals), Shape: in.shape, DType: in.dtype}
	}
	ref, ok := kernels.LookupRef(name)
	if !ok {
		return kernels.Buffer{}, fmt.Errorf("no reference kernel %q", name)
	}
	out, err := ref(bufs, c.attrs)
	out.Data = round(out.Data)
	return out, err
}

// TestMalformedCallAfterAGoodOneFails: a call the reference rejects fails
// with the reference's words after a good call of the same kernel compiled
// its program, dispatched twice, and the good call still runs after it.
func TestMalformedCallAfterAGoodOneFails(t *testing.T) {
	b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 3)
	img := cin{shape: []int{1, 4, 4, 3}, dtype: tensor.Float32, vals: make([]float32, 48)}
	filter := cin{shape: []int{3, 3, 3, 2}, dtype: tensor.Float32, vals: make([]float32, 54)}
	x := cin{shape: []int{2, 3}, dtype: tensor.Float32, vals: []float32{1, 2, 3, 4, 5, 6}}
	for _, c := range []struct {
		kernel    string
		good, bad contractCase
	}{
		{"Transpose", contractCase{"good", []cin{x}, kernels.Attrs{Perm: []int{1, 0}}}, contractCase{"repeatedAxis", []cin{x}, kernels.Attrs{Perm: []int{1, 1}}}},
		{"Sum", contractCase{"good", []cin{x}, kernels.Attrs{Axes: []int{1}}}, contractCase{"axisOutOfRange", []cin{x}, kernels.Attrs{Axes: []int{0, 2}}}},
		{"Conv2D", contractCase{"good", []cin{img, filter}, convAttrs([]int{1, 1}, []int{1, 1}, "same")},
			contractCase{"zeroDilations", []cin{img, filter}, convAttrs([]int{1, 1}, []int{0, 0}, "same")}},
		{"Add", contractCase{"good", []cin{x, {shape: []int{3}, vals: []float32{1, 2, 3}}}, kernels.Attrs{}},
			contractCase{"notBroadcastable", []cin{x, {shape: []int{4}, vals: []float32{1, 2, 3, 4}}}, kernels.Attrs{}}},
	} {
		_, want := referenceOutput(c.kernel, c.bad, false)
		if want == nil {
			t.Fatalf("%s/%s: the reference kernel accepts it", c.kernel, c.bad.label)
		}
		for _, call := range []contractCase{c.good, c.good, c.bad, c.bad, c.good} {
			_, err := runContractCase(b, c.kernel, call)
			if call.label == "good" && err != nil {
				t.Errorf("%s: the good call failed: %v", c.kernel, err)
			}
			if call.label != "good" && fmt.Sprint(err) != want.Error() {
				t.Errorf("%s/%s after a good call: err = %v, want the reference's %v", c.kernel, call.label, err, want)
			}
		}
	}
}

// TestProgramKeyHoldsEveryAttribute: setting any one field of
// kernels.Attrs — every slice field nil, empty or not, a float to a NaN —
// gives a key of its own, so a field added to Attrs and left out of the key
// fails here rather than aliasing two programs. Shapes, dtypes, the input
// count and the name each separate keys too, and ownAttrs copies every
// slice field.
func TestProgramKeyHoldsEveryAttribute(t *testing.T) {
	in := func(shape []int, dtype tensor.DataType) []kernels.Input {
		return []kernels.Input{{Shape: shape, DType: dtype}}
	}
	seen := map[string]string{}
	add := func(label, key string) {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s has the key of %s", label, prev)
		}
		seen[key] = label
	}
	add("zero attrs", string(appendKey(nil, "K", nil, &kernels.Attrs{})))
	add("name", string(appendKey(nil, "L", nil, &kernels.Attrs{})))
	add("one input", string(appendKey(nil, "K", in([]int{2, 3}, tensor.Float32), &kernels.Attrs{})))
	add("input shape", string(appendKey(nil, "K", in([]int{3, 2}, tensor.Float32), &kernels.Attrs{})))
	add("input dtype", string(appendKey(nil, "K", in([]int{2, 3}, tensor.Int32), &kernels.Attrs{})))
	add("scalar input", string(appendKey(nil, "K", in([]int{}, tensor.Float32), &kernels.Attrs{})))
	add("two inputs", string(appendKey(nil, "K", append(in(nil, tensor.Float32), in(nil, tensor.Float32)...), &kernels.Attrs{})))

	typ := reflect.TypeOf(kernels.Attrs{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var values []any
		switch f.Type.Kind() {
		case reflect.Slice:
			values = []any{[]int{}, []int{1}, []int{-1, 2}}
		case reflect.String:
			values = []any{"same"}
		case reflect.Int:
			values = []any{1, -1}
		case reflect.Float64:
			values = []any{0.5, math.Copysign(0, -1), math.NaN()}
		case reflect.Bool:
			values = []any{true}
		default:
			t.Errorf("Attrs.%s is a %s, which the program key has no encoding for", f.Name, f.Type)
		}
		for _, v := range values {
			var a kernels.Attrs
			field := reflect.ValueOf(&a).Elem().Field(i)
			field.Set(reflect.ValueOf(v).Convert(f.Type))
			key := appendKey(nil, "K", nil, &a)
			add(fmt.Sprintf("Attrs.%s = %v", f.Name, v), string(key))
			if again := appendKey(nil, "K", nil, &a); string(again) != string(key) {
				t.Errorf("Attrs.%s = %v: two keys for one call", f.Name, v)
			}
			if f.Type.Kind() == reflect.Slice && field.Len() > 0 {
				own := reflect.ValueOf(ownAttrs(a)).Field(i)
				if own.Pointer() == field.Pointer() {
					t.Errorf("ownAttrs shares Attrs.%s with its caller", f.Name)
				}
			}
		}
	}
}

// TestProgramCacheServesConcurrentDispatches: goroutines dispatching on one
// backend share its compiled programs and its recycled records — calls of
// the same keys and of their own, no fence between — and every output is
// the reference kernel's.
func TestProgramCacheServesConcurrentDispatches(t *testing.T) {
	b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 3)
	rng := rand.New(rand.NewSource(5))
	calls := []struct {
		kernel string
		c      contractCase
	}{
		{"Add", contractCase{"rows", []cin{rnd(rng, 4, 6), rnd(rng, 6)}, kernels.Attrs{}}},
		{"Conv2D", contractCase{"same", []cin{rnd(rng, 1, 5, 5, 2), rnd(rng, 3, 3, 2, 3)}, convAttrs(nil, nil, "same")}},
		{"Sum", contractCase{"rows", []cin{rnd(rng, 3, 7)}, kernels.Attrs{Axes: []int{1}}}},
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				call := calls[(g+i)%len(calls)]
				want, _ := referenceOutput(call.kernel, call.c, false)
				inputs := make([]kernels.Input, len(call.c.inputs))
				for k, in := range call.c.inputs {
					inputs[k] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.shape, DType: in.dtype}
					b.Write(inputs[k].DataID, in.vals, in.shape, in.dtype)
				}
				var out kernels.TensorInfo
				if err := b.kernelsTable[call.kernel](inputs, call.c.attrs, &out); err != nil {
					t.Errorf("%s: %v", call.kernel, err)
					return
				}
				for k, v := range b.ReadSync(out.DataID) {
					if math.Float32bits(v) != math.Float32bits(want.Data[k]) {
						t.Errorf("goroutine %d, %s: value %d = %g, reference %g", g, call.kernel, k, v, want.Data[k])
						break
					}
				}
				b.DisposeData(out.DataID)
				for _, in := range inputs {
					b.DisposeData(in.DataID)
				}
			}
		}(g)
	}
	wg.Wait()
}
