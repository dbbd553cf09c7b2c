package webgl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTexShapeProperty: for any tensor size, the physical texture holds at
// least the required texels, respects the device limit, and wastes at most
// one row.
func TestTexShapeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(1 << 20)
		for _, packed := range []bool{false, true} {
			w, h, err := texShape(size, packed, 16384)
			if err != nil {
				return false
			}
			if w <= 0 || h <= 0 || w > 16384 || h > 16384 {
				return false
			}
			needed := size
			if packed {
				needed = (size + 3) / 4
			}
			if needed == 0 {
				needed = 1
			}
			if w*h < needed {
				return false
			}
			// No more than one extra row of waste.
			if w*(h-1) >= needed && h > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTexShapeRejectsOversized(t *testing.T) {
	if _, _, err := texShape(1<<30, false, 1024); err == nil {
		t.Fatal("tensor exceeding texture limits must error")
	}
}
