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

// InferShape resolves a shape specification that may contain a single -1
// wildcard dimension, given the total element count, into a copy
// (InferInto).
func InferShape(shape []int, size int) ([]int, error) {
	out := CopyShape(shape)
	if err := InferInto(out, size); err != nil {
		return nil, err
	}
	return out, nil
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
	ra, rb := len(a), len(b)
	rank := ra
	if rb > rank {
		rank = rb
	}
	out := make([]int, rank)
	for i := 0; i < rank; i++ {
		da, db := 1, 1
		if i >= rank-ra {
			da = a[i-(rank-ra)]
		}
		if i >= rank-rb {
			db = b[i-(rank-rb)]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return out, nil
}
