package tensor

import "fmt"

// ShapeSize returns the number of elements in a shape. The empty shape
// (a scalar) has size 1.
func ShapeSize(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ComputeStrides returns row-major strides for shape. Strides have
// len(shape) entries; the last entry is 1. A scalar has nil strides.
func ComputeStrides(shape []int) []int {
	rank := len(shape)
	if rank == 0 {
		return nil
	}
	strides := make([]int, rank)
	strides[rank-1] = 1
	for i := rank - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * shape[i+1]
	}
	return strides
}

// ShapesEqual reports whether two shapes are identical.
func ShapesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CopyShape returns a defensive copy of shape.
func CopyShape(shape []int) []int {
	out := make([]int, len(shape))
	copy(out, shape)
	return out
}

// InferInto resolves, in place and without allocating, a shape that may
// contain a single -1 wildcard dimension against the total element count.
// It returns an error if the size is not divisible or the shape contains
// multiple wildcards or a negative dimension, leaving shape as it was.
func InferInto(shape []int, size int) error {
	wild := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if wild != -1 {
				return fmt.Errorf("tensor: shape %v has more than one -1 dimension", shape)
			}
			wild = i
		case d < 0:
			return fmt.Errorf("tensor: shape %v has negative dimension %d", shape, d)
		default:
			known *= d
		}
	}
	if wild == -1 {
		if known != size {
			return fmt.Errorf("tensor: shape %v (size %d) incompatible with %d elements", shape, known, size)
		}
		return nil
	}
	if known == 0 || size%known != 0 {
		return fmt.Errorf("tensor: cannot infer -1 in shape %v for %d elements", shape, size)
	}
	shape[wild] = size / known
	return nil
}

// BroadcastShapes computes the NumPy-style broadcast shape of a and b,
// or an error if the shapes are incompatible.
func BroadcastShapes(a, b []int) ([]int, error) {
	return AppendBroadcast(make([]int, 0, max(len(a), len(b))), a, b)
}

// AppendBroadcast appends the broadcast shape of a and b to dst, as
// BroadcastShapes computes it, and returns the extended slice: a caller
// that hands it a buffer with room allocates nothing.
func AppendBroadcast(dst, a, b []int) ([]int, error) {
	rank := max(len(a), len(b))
	for i := 0; i < rank; i++ {
		da, db := 1, 1
		if j := i - rank + len(a); j >= 0 {
			da = a[j]
		}
		if j := i - rank + len(b); j >= 0 {
			db = b[j]
		}
		switch {
		case da == db, db == 1:
			dst = append(dst, da)
		case da == 1:
			dst = append(dst, db)
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return dst, nil
}
