package core

import (
	"slices"
	"testing"

	"repro/internal/kernels"
)

// TestShapeTableInterns: a call signature's shapes are built once and
// handed out again on every later call with the same shapes, without
// allocating; what the table handed out holds its values when the caller
// rewrites its own shape storage and when the full table is cleared.
func TestShapeTableInterns(t *testing.T) {
	var tab shapeTable
	in, out := []int{1, 2}, []int{4, 5}
	ins := []kernels.Input{{Shape: in}, {Shape: []int{3}}}
	first := tab.get(ins, out)
	want := [][]int{{1, 2}, {3}, {4, 5}}
	in[1], out[0] = 9, 9 // the caller reuses its storage
	if !slices.EqualFunc(first, want, slices.Equal[[]int]) {
		t.Fatalf("interned shapes = %v after the caller rewrote its own, want %v", first, want)
	}
	in[1], out[0] = 2, 4
	if again := tab.get(ins, out); &again[0][0] != &first[0][0] {
		t.Error("a second call with the same shapes built them again")
	}
	if allocs := testing.AllocsPerRun(100, func() { tab.get(ins, out) }); allocs != 0 {
		t.Errorf("an interned lookup allocates %.0f/op, want 0", allocs)
	}
	for d := 0; d <= kernels.MemoCap; d++ { // fills the table, which is cleared
		tab.get(nil, []int{d})
	}
	if len(tab.m) > kernels.MemoCap {
		t.Errorf("the table holds %d signatures, bound %d", len(tab.m), kernels.MemoCap)
	}
	if !slices.EqualFunc(first, want, slices.Equal[[]int]) {
		t.Errorf("interned shapes = %v after the table was cleared, want %v", first, want)
	}
}
