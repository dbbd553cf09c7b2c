package tensor

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestShapeSize(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{nil, 1},
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 0, 4}, 0},
		{[]int{1, 1, 1}, 1},
	}
	for _, c := range cases {
		if got := ShapeSize(c.shape); got != c.want {
			t.Errorf("ShapeSize(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestComputeStrides(t *testing.T) {
	if got := ComputeStrides(nil); got != nil {
		t.Errorf("scalar strides = %v, want nil", got)
	}
	if got := ComputeStrides([]int{2, 3, 4}); !reflect.DeepEqual(got, []int{12, 4, 1}) {
		t.Errorf("strides(2,3,4) = %v", got)
	}
}

func TestInferShape(t *testing.T) {
	got := []int{2, -1}
	if err := InferInto(got, 6); err != nil || !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("InferInto([2,-1], 6) = %v, %v", got, err)
	}
	for _, c := range []struct {
		shape []int
		why   string
	}{
		{[]int{2, -1, -1}, "two wildcards should error"},
		{[]int{4}, "mismatched size should error"},
		{[]int{4, -1}, "non-divisible wildcard should error"},
	} {
		shape := slices.Clone(c.shape)
		if err := InferInto(shape, 6); err == nil {
			t.Error(c.why)
		}
		if !reflect.DeepEqual(shape, c.shape) {
			t.Errorf("InferInto(%v, 6) failed but changed the shape to %v", c.shape, shape)
		}
	}
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want []int
		err        bool
	}{
		{[]int{2, 3}, []int{2, 3}, []int{2, 3}, false},
		{[]int{2, 1}, []int{1, 3}, []int{2, 3}, false},
		{[]int{3}, []int{2, 3}, []int{2, 3}, false},
		{[]int{}, []int{2, 3}, []int{2, 3}, false},
		{[]int{2}, []int{3}, nil, true},
		{[]int{4, 1, 5}, []int{3, 1}, []int{4, 3, 5}, false},
	}
	for _, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.err {
			if err == nil {
				t.Errorf("BroadcastShapes(%v, %v) should error", c.a, c.b)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("BroadcastShapes(%v, %v) = %v, %v; want %v", c.a, c.b, got, err, c.want)
		}
	}
}

// TestBroadcastCommutes is a property test: broadcasting is symmetric in
// its result shape.
func TestBroadcastCommutes(t *testing.T) {
	gen := func(r *rand.Rand) []int {
		rank := r.Intn(4)
		s := make([]int, rank)
		for i := range s {
			if r.Intn(2) == 0 {
				s[i] = 1
			} else {
				s[i] = 1 + r.Intn(4)
			}
		}
		return s
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(gen(r))
		vals[1] = reflect.ValueOf(gen(r))
	}}
	prop := func(a, b []int) bool {
		ab, errAB := BroadcastShapes(a, b)
		ba, errBA := BroadcastShapes(b, a)
		if (errAB == nil) != (errBA == nil) {
			return false
		}
		if errAB != nil {
			return true
		}
		return ShapesEqual(ab, ba)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestDataTypeStrings(t *testing.T) {
	for _, c := range []struct {
		dt   DataType
		want string
	}{{Float32, "float32"}, {Int32, "int32"}, {Bool, "bool"}} {
		if c.dt.String() != c.want {
			t.Errorf("%v.String() = %q", c.dt, c.dt.String())
		}
		parsed, err := ParseDataType(c.want)
		if err != nil || parsed != c.dt {
			t.Errorf("ParseDataType(%q) = %v, %v", c.want, parsed, err)
		}
	}
	if _, err := ParseDataType("float16"); err == nil {
		t.Error("unknown dtype should error")
	}
	if dt, err := ParseDataType(""); err != nil || dt != Float32 {
		t.Error("empty dtype should default to float32")
	}
}

func TestTensorBasics(t *testing.T) {
	tt := New(NewDataID(), []int{2, 3}, Float32)
	if tt.Size() != 6 || tt.Rank() != 2 || tt.Bytes() != 24 {
		t.Errorf("tensor basics wrong: size=%d rank=%d bytes=%d", tt.Size(), tt.Rank(), tt.Bytes())
	}
	if got := tt.String(); got != "Tensor[2x3 float32]" {
		t.Errorf("String() = %q", got)
	}
	scalar := New(NewDataID(), nil, Int32)
	if scalar.String() != "Tensor[scalar int32]" {
		t.Errorf("scalar String() = %q", scalar.String())
	}
}

func TestTensorIDsUnique(t *testing.T) {
	seen := map[DataID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewDataID()
		if seen[id] {
			t.Fatal("duplicate DataID")
		}
		seen[id] = true
	}
}
