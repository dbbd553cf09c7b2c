package webgl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/native"
	"repro/internal/tensor"
)

// TestCachedProgramIsTheCompiledOne: every entry of the range table, on
// every contract case, on packed, unpacked and half-float webgl, dispatched
// twice with no fence between. The first dispatch misses the memo and
// compiles the program, the second hits it, and both outputs are
// Float32bits-equal to the reference kernel (on half floats: the reference
// on the fp16-rounded inputs, rounded) — a GatherV2 index out of range,
// which the reference rejects, 0 in its slice (deviceOutput). A case the
// reference rejects for its shapes fails both dispatches with its words
// and compiles nothing. Then the next case of the kernel, another shape or
// attribute, compiles its own program.
func TestCachedProgramIsTheCompiledOne(t *testing.T) {
	cases := contractCases()
	for _, cfg := range []contractConfig{{packed: true, squeeze: true}, {squeeze: true}, {packed: true, half: true, squeeze: true}} {
		b := newContractBackend(t, cfg, 3)
		for _, k := range kernels.RangeKernels() {
			if len(cases[k.Name]) == 0 {
				t.Errorf("%s: no contract case", k.Name)
			}
			for _, c := range cases[k.Name] {
				where := fmt.Sprintf("%s/%s on %s", k.Name, c.label, cfg)
				want, wantErr := deviceOutput(k.Name, c, cfg.half)
				before, missesBefore := b.programs.Len(), b.programs.Misses()
				inputs := make([]kernels.Input, len(c.inputs))
				for i, in := range c.inputs {
					inputs[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.shape, DType: in.dtype}
					b.Write(inputs[i].DataID, in.vals, in.shape, in.dtype)
				}
				var miss, hit kernels.TensorInfo
				missErr := b.kernelsTable[k.Name](inputs, c.attrs, &miss)
				compiled, missed := b.programs.Len(), b.programs.Misses()
				hitErr := b.kernelsTable[k.Name](inputs, c.attrs, &hit)
				switch {
				case wantErr != nil || missErr != nil:
					if fmt.Sprint(missErr) != fmt.Sprint(wantErr) || fmt.Sprint(hitErr) != fmt.Sprint(wantErr) {
						t.Errorf("%s: errors %v then %v, want the reference's %v", where, missErr, hitErr, wantErr)
					}
					if n := b.programs.Len(); n != before {
						t.Errorf("%s: a failed call left %d compiled programs, %d before", where, n, before)
					}
				case hitErr != nil:
					t.Errorf("%s: the first dispatch ran, the second failed: %v", where, hitErr)
				default:
					if compiled != before+1 || missed != missesBefore+1 {
						t.Errorf("%s: the first dispatch compiled no program of its own (%d programs, %d before)", where, compiled, before)
					} else if b.programs.Len() != compiled || b.programs.Misses() != missed {
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

// TestNodeResolvesOncePerCallSignature is the twin of the test above on
// node: every entry of the range table on every contract case, at 1 and 3
// workers, dispatched twice. The first dispatch misses the backend's memo
// and resolves the call, the second hits it and resolves nothing, and both
// outputs are Float32bits-equal to the reference kernel. A case the
// reference rejects fails both with its words; one it rejects for its
// values (a GatherV2 index out of range: Range.Check, run on every
// dispatch) is resolved on the first dispatch only, as a good call is.
func TestNodeResolvesOncePerCallSignature(t *testing.T) {
	cases := contractCases()
	for _, workers := range []int{1, 3} {
		nb := native.New()
		nb.SetWorkers(workers)
		for _, k := range kernels.RangeKernels() {
			run, _ := nb.Kernel(k.Name)
			for _, c := range cases[k.Name] {
				where := fmt.Sprintf("%s/%s at %d workers", k.Name, c.label, workers)
				want, wantErr := referenceOutput(k.Name, c, false)
				inputs := make([]kernels.Input, len(c.inputs))
				for i, in := range c.inputs {
					inputs[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.shape, DType: in.dtype}
					nb.Write(inputs[i].DataID, in.vals, in.shape, in.dtype)
				}
				before := nb.Resolves()
				var miss, hit kernels.TensorInfo
				missErr := run(inputs, c.attrs, &miss)
				resolved := nb.Resolves()
				hitErr := run(inputs, c.attrs, &hit)
				switch {
				case wantErr != nil || missErr != nil:
					if fmt.Sprint(missErr) != fmt.Sprint(wantErr) || fmt.Sprint(hitErr) != fmt.Sprint(wantErr) {
						t.Errorf("%s: errors %v then %v, want the reference's %v", where, missErr, hitErr, wantErr)
					}
					if _, err := deviceOutput(k.Name, c, false); err == nil && (resolved != before+1 || nb.Resolves() != resolved) {
						t.Errorf("%s: rejected for its values, %d resolves on the first dispatch and %d on the second, want 1 and 0", where, resolved-before, nb.Resolves()-resolved)
					}
				case hitErr != nil:
					t.Errorf("%s: the first dispatch ran, the second failed: %v", where, hitErr)
				default:
					if resolved != before+1 || nb.Resolves() != resolved {
						t.Errorf("%s: %d resolves on the first dispatch and %d on the second, want 1 and 0", where, resolved-before, nb.Resolves()-resolved)
					}
					for _, out := range []struct {
						label string
						info  kernels.TensorInfo
					}{{"resolved", miss}, {"memoised", hit}} {
						if err := sameOutput(out.info, nb.ReadSync(out.info.DataID), want); err != nil {
							t.Errorf("%s, %s: %v", where, out.label, err)
						}
						nb.DisposeData(out.info.DataID)
					}
				}
				for _, in := range inputs {
					nb.DisposeData(in.DataID)
				}
			}
		}
	}
}

// sameOutput holds a kernel's output, described by out with values got, to
// the reference's, bit for bit.
func sameOutput(out kernels.TensorInfo, got []float32, want kernels.Buffer) error {
	if fmt.Sprint(out.Shape) != fmt.Sprint(want.Shape) || out.DType != want.DType || len(got) != len(want.Data) {
		return fmt.Errorf("output %v %v, want %v %v", out.Shape, out.DType, want.Shape, want.DType)
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			return fmt.Errorf("value %d = %g, reference %g", i, v, want.Data[i])
		}
	}
	return nil
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

// deviceOutput is what a device tier writes for case c of kernel name: the
// reference kernel's output (referenceOutput), but for a GatherV2 whose
// indices are out of range, which the reference rejects and a device
// cannot read without a readback, 0 in each such index's slice and the
// reference's bits elsewhere.
func deviceOutput(name string, c contractCase, half bool) (kernels.Buffer, error) {
	want, err := referenceOutput(name, c, half)
	if err == nil || name != "GatherV2" {
		return want, err
	}
	x, indices := c.inputs[0], c.inputs[1]
	axis := c.attrs.Axis
	if axis < 0 {
		axis += len(x.shape)
	}
	good := cin{shape: indices.shape, dtype: indices.dtype, vals: slices.Clone(indices.vals)}
	var bad []int
	for i, v := range indices.vals {
		if v < 0 || int(v) >= x.shape[axis] {
			good.vals[i], bad = 0, append(bad, i)
		}
	}
	if want, err = referenceOutput(name, contractCase{c.label, []cin{x, good}, c.attrs}, half); err != nil {
		return want, err
	}
	inner, n := tensor.ShapeSize(x.shape[axis+1:]), len(indices.vals)
	for o := range tensor.ShapeSize(x.shape[:axis]) {
		for _, i := range bad {
			clear(want.Data[(o*n+i)*inner:][:inner])
		}
	}
	return want, nil
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

// TestProgramCacheServesConcurrentDispatches: goroutines dispatching on one
// backend share its memo — calls of the same keys and of their own, no
// fence between — and every output is the reference kernel's: on webgl,
// whose memo holds compiled programs and which recycles its records too,
// and on node, whose memo holds the resolved calls.
func TestProgramCacheServesConcurrentDispatches(t *testing.T) {
	nb := native.New()
	nb.SetWorkers(3)
	for _, b := range []kernels.Backend{newContractBackend(t, contractConfig{packed: true, squeeze: true}, 3), nb} {
		rng := rand.New(rand.NewSource(5))
		calls := []struct {
			kernel string
			c      contractCase
		}{
			{"Add", contractCase{"rows", []cin{rnd(rng, 4, 6), rnd(rng, 6)}, kernels.Attrs{}}},
			{"Conv2D", contractCase{"same", []cin{rnd(rng, 1, 5, 5, 2), rnd(rng, 3, 3, 2, 3)}, convAttrs(nil, nil, "same")}},
			{"Sum", contractCase{"rows", []cin{rnd(rng, 3, 7)}, kernels.Attrs{Axes: []int{1}}}},
			{"Sum", contractCase{"cols", []cin{rnd(rng, 3, 7)}, kernels.Attrs{Axes: []int{0}}}},
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
					run, _ := b.Kernel(call.kernel)
					var out kernels.TensorInfo
					if err := run(inputs, call.c.attrs, &out); err != nil {
						t.Errorf("%s %s: %v", b.Name(), call.kernel, err)
						return
					}
					if err := sameOutput(out, b.ReadSync(out.DataID), want); err != nil {
						t.Errorf("%s, goroutine %d, %s/%s: %v", b.Name(), g, call.kernel, call.c.label, err)
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
	// Goroutines missing one key at once each resolve it; none resolves a
	// key twice.
	if n := nb.Resolves(); n < 4 || n > 4*4 {
		t.Errorf("node resolved %d calls of 4 signatures on 4 goroutines", n)
	}
}
