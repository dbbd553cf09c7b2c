package kernels

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// TestProgramKeyHoldsEveryAttribute: setting any one field of Attrs —
// every slice field nil, empty or not, a float to a NaN — gives a key of
// its own, so a field added to Attrs and left out of the key fails here
// rather than aliasing two calls in a Memo (two programs, on webgl). Shapes, dtypes, the input
// count and the name each separate keys too, and ownAttrs copies every
// slice field.
func TestProgramKeyHoldsEveryAttribute(t *testing.T) {
	in := func(shape []int, dtype tensor.DataType) []Input {
		return []Input{{Shape: shape, DType: dtype}}
	}
	seen := map[string]string{}
	add := func(label, key string) {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s has the key of %s", label, prev)
		}
		seen[key] = label
	}
	add("zero attrs", string(appendKey(nil, "K", nil, &Attrs{})))
	add("name", string(appendKey(nil, "L", nil, &Attrs{})))
	add("one input", string(appendKey(nil, "K", in([]int{2, 3}, tensor.Float32), &Attrs{})))
	add("input shape", string(appendKey(nil, "K", in([]int{3, 2}, tensor.Float32), &Attrs{})))
	add("input dtype", string(appendKey(nil, "K", in([]int{2, 3}, tensor.Int32), &Attrs{})))
	add("scalar input", string(appendKey(nil, "K", in([]int{}, tensor.Float32), &Attrs{})))
	add("two inputs", string(appendKey(nil, "K", append(in(nil, tensor.Float32), in(nil, tensor.Float32)...), &Attrs{})))

	typ := reflect.TypeOf(Attrs{})
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
			t.Errorf("Attrs.%s is a %s, which the key has no encoding for", f.Name, f.Type)
		}
		for _, v := range values {
			var a Attrs
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

// TestMemoResolvesOncePerKeyAndStaysBounded: a Memo resolves a call once
// per key and serves every later call of the key from what it built; a
// failed resolve is never kept; and distinct keys
// past MemoCap clear it rather than grow it.
func TestMemoResolvesOncePerKeyAndStaysBounded(t *testing.T) {
	resolves := 0
	errRejected := errors.New("rejected")
	k := RangeKernel{Name: "K", Resolve: func(_ string, inputs []Input, attrs Attrs, out *TensorInfo) (Range, error) {
		resolves++
		if attrs.Axis < 0 {
			return Range{}, errRejected
		}
		out.Shape, out.DType = append(out.Shape[:0], inputs[0].Shape...), tensor.Float32
		return Range{Unit: attrs.Axis}, nil
	}}
	built := 0
	m := NewMemo(func(_ RangeKernel, r Resolved, _ []Input, _ Attrs) Resolved { built++; return r })
	shape := []int{2, 3}
	inputs := []Input{{Shape: shape, DType: tensor.Float32}}
	for i := 0; i < 3; i++ {
		r, err := m.Get(k, inputs, &Attrs{Axis: 7})
		if err != nil || r.Unit != 7 || fmt.Sprint(r.Shape) != "[2 3]" {
			t.Fatalf("call %d: %+v, %v", i, r, err)
		}
	}
	shape[0] = 5 // the caller reuses its storage: the memo kept its own copy
	if r, _ := m.Get(k, []Input{{Shape: []int{2, 3}, DType: tensor.Float32}}, &Attrs{Axis: 7}); resolves != 1 || built != 1 || m.Misses() != 1 || fmt.Sprint(r.Shape) != "[2 3]" {
		t.Errorf("three calls of one key: %d resolves, %d built, %d misses, shape %v; want one each and [2 3]", resolves, built, m.Misses(), r.Shape)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Get(k, inputs, &Attrs{Axis: -1}); !errors.Is(err, errRejected) {
			t.Fatalf("rejected call: err = %v", err)
		}
	}
	if resolves != 3 || m.Len() != 1 {
		t.Errorf("a rejected call twice: %d resolves, %d kept; want it resolved each time and kept never", resolves, m.Len())
	}
	for i := 0; i <= MemoCap; i++ {
		if _, err := m.Get(k, inputs, &Attrs{Axis: i}); err != nil {
			t.Fatal(err)
		}
		if n := m.Len(); n > MemoCap {
			t.Fatalf("%d values kept, bound %d", n, MemoCap)
		}
	}
}
