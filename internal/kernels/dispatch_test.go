package kernels

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/jsenv"
	"repro/internal/tensor"
)

// stubBackend is a host-memory backend with at most one kernel of its own:
// enough of a device for Dispatch to read operands from and write a
// reference result to.
type stubBackend struct {
	data     map[tensor.DataID][]float32
	override OverrideKernel // under the name "Probe"; nil for none
	reads    int
	writes   int
}

func (s *stubBackend) Name() string { return "stub" }
func (s *stubBackend) Write(d tensor.DataID, values []float32, _ []int, _ tensor.DataType) {
	s.writes++
	s.data[d] = append([]float32(nil), values...)
}
func (s *stubBackend) ReadSync(d tensor.DataID) []float32 { s.reads++; return s.data[d] }
func (s *stubBackend) Read(tensor.DataID) *jsenv.Future[[]float32] {
	return jsenv.NewFuture[[]float32]()
}
func (s *stubBackend) DisposeData(d tensor.DataID) { delete(s.data, d) }
func (s *stubBackend) Memory() MemoryInfo          { return MemoryInfo{NumBuffers: len(s.data)} }
func (s *stubBackend) Time(f func()) TimeInfo      { f(); return TimeInfo{} }
func (s *stubBackend) Close()                      {}
func (s *stubBackend) KernelOverride(name string) (OverrideKernel, bool) {
	return s.override, name == "Probe" && s.override != nil
}

// probeRefShape is the slice the "Probe" reference kernel returns as its
// output shape, every time: a result that aliased it would be overwritten by
// the next caller.
var probeRefShape = []int{2}

func init() {
	// Probe doubles its operand; ProbeAlias returns its operand's own shape
	// slice, as Identity-like reference kernels do.
	RegisterRef("Probe", func(inputs []Buffer, _ Attrs) (Buffer, error) {
		if len(inputs) != 1 {
			return Buffer{}, errIn("Probe", "got %d inputs, want 1", len(inputs))
		}
		out := Buffer{Data: make([]float32, len(inputs[0].Data)), Shape: probeRefShape, DType: tensor.Float32}
		for i, v := range inputs[0].Data {
			out.Data[i] = 2 * v
		}
		return out, nil
	})
	RegisterRef("ProbeAlias", func(inputs []Buffer, _ Attrs) (Buffer, error) {
		return Buffer{Data: inputs[0].Data, Shape: inputs[0].Shape, DType: tensor.Float32}, nil
	})
}

// TestDispatchPolicy is the whole dispatch policy, one row per branch: the
// engine's eager path and the graph plan executor both reach kernels through
// Dispatch and nothing else, so what holds here holds for both.
func TestDispatchPolicy(t *testing.T) {
	errBoom := errors.New("boom")
	// own writes the operand tripled as a new container: a device kernel.
	own := func(s *stubBackend) OverrideKernel {
		return func(inputs []Input, _ Attrs, out *TensorInfo) error {
			src := s.data[inputs[0].DataID]
			dst := make([]float32, len(src))
			for i, v := range src {
				dst[i] = 3 * v
			}
			out.Set(tensor.NewDataID(), inputs[0].Shape, tensor.Float32)
			s.data[out.DataID] = dst
			return nil
		}
	}
	for _, c := range []struct {
		name     string
		kernel   string
		override func(*stubBackend) OverrideKernel
		want     []float32 // nil: an error is expected
		wantErr  string    // substring; with errIs, the identity
		errIs    error
		refRan   bool
		noInputs bool
	}{
		{name: "override succeeds", kernel: "Probe", override: own, want: []float32{3, -6}},
		{name: "override declines, reference runs on the backend", kernel: "Probe",
			override: func(*stubBackend) OverrideKernel {
				return func([]Input, Attrs, *TensorInfo) error { return ErrFallback }
			}, want: []float32{2, -4}, refRan: true},
		{name: "wrapped decline still falls back", kernel: "Probe",
			override: func(*stubBackend) OverrideKernel {
				return func([]Input, Attrs, *TensorInfo) error { return errors.Join(errors.New("dilated"), ErrFallback) }
			}, want: []float32{2, -4}, refRan: true},
		{name: "no override, reference runs", kernel: "Probe", want: []float32{2, -4}, refRan: true},
		{name: "neither: the error names kernel and backend", kernel: "NoSuchKernel",
			wantErr: `kernel NoSuchKernel: not registered for backend "stub"`},
		{name: "override fails: returned, not swallowed into the reference leg", kernel: "Probe",
			override: func(*stubBackend) OverrideKernel {
				return func([]Input, Attrs, *TensorInfo) error { return errBoom }
			}, wantErr: "boom", errIs: errBoom},
		{name: "override returns nil and no output", kernel: "Probe",
			override: func(*stubBackend) OverrideKernel {
				return func([]Input, Attrs, *TensorInfo) error { return nil }
			}, wantErr: `kernel Probe: backend "stub" returned no output`},
		{name: "reference kernel fails", kernel: "Probe", noInputs: true, wantErr: "got 0 inputs, want 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := &stubBackend{data: map[tensor.DataID][]float32{}}
			if c.override != nil {
				s.override = c.override(s)
			}
			in := Input{DataID: tensor.NewDataID(), Shape: []int{2}, DType: tensor.Float32}
			s.data[in.DataID] = []float32{1, -2}
			inputs := []Input{in}
			if c.noInputs {
				inputs = nil
			}
			// A stale descriptor, as a reused plan step's scratch holds.
			out := TensorInfo{DataID: in.DataID, Shape: make([]int, 1, 4), DType: tensor.Int32}
			scratch := &out.Shape[0]
			err := Dispatch(s, c.kernel, inputs, Attrs{}, &out)
			if c.want == nil {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, c.wantErr)
				}
				if c.errIs != nil && !errors.Is(err, c.errIs) {
					t.Fatalf("error %v does not wrap %v", err, c.errIs)
				}
				if errors.Is(err, ErrFallback) {
					t.Fatalf("ErrFallback escaped the dispatcher: %v", err)
				}
				if s.writes != 0 {
					t.Fatalf("a failed dispatch wrote %d containers", s.writes)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if out.DataID == 0 || out.DataID == in.DataID {
				t.Fatalf("output container %d, want a new one (input is %d)", out.DataID, in.DataID)
			}
			got, ok := s.data[out.DataID]
			if !ok || len(got) != len(c.want) || got[0] != c.want[0] || got[1] != c.want[1] {
				t.Fatalf("backend holds %v for the output, want %v", got, c.want)
			}
			if !tensor.ShapesEqual(out.Shape, []int{2}) || out.DType != tensor.Float32 {
				t.Fatalf("output described as %v %v, want [2] float32", out.Shape, out.DType)
			}
			if ranRef := s.reads == 1 && s.writes == 1; ranRef != c.refRan {
				t.Fatalf("%d operand reads and %d writes; reference leg expected: %v", s.reads, s.writes, c.refRan)
			}
			// The shape landed in the caller's scratch, and shares nothing
			// with the operand's slice or the reference kernel's.
			if &out.Shape[0] != scratch {
				t.Fatal("output shape was reallocated, not appended into the caller's scratch")
			}
			out.Shape[0] = 99
			if in.Shape[0] != 2 || probeRefShape[0] != 2 {
				t.Fatalf("output shape aliases the input's (%v) or the reference kernel's (%v)", in.Shape, probeRefShape)
			}
		})
	}
}

// TestDispatchCopiesAnAliasedReferenceShape: a reference kernel may hand
// back its operand's shape slice; Dispatch's caller never sees it.
func TestDispatchCopiesAnAliasedReferenceShape(t *testing.T) {
	s := &stubBackend{data: map[tensor.DataID][]float32{}}
	in := Input{DataID: tensor.NewDataID(), Shape: []int{1, 3}, DType: tensor.Float32}
	s.data[in.DataID] = []float32{1, 2, 3}
	var out TensorInfo
	if err := Dispatch(s, "ProbeAlias", []Input{in}, Attrs{}, &out); err != nil {
		t.Fatal(err)
	}
	out.Shape[0] = 99
	if in.Shape[0] != 1 {
		t.Fatalf("output shape aliases the input's: %v", in.Shape)
	}
}
