package native

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/vec"
)

// Differential tests for vec.GemmRow, the product under this backend's
// matmul, wide convolutions and filter gradient (internal/vec holds the
// cores' own tests): the zero-skipping compaction onto vec.AxpyN against
// the loop that defines it, compared by bit pattern.
// Two NaNs count as equal whatever their payloads (which payload survives
// NaN∘NaN is operand order, which the compiler picks for the Go bodies);
// everything else — rounding, ±0, ±Inf, denormals, where a NaN appears at
// all, that a 0·Inf stays out of the sum — must match to the bit. The
// operand generators also feed the gradient and element-wise suites.

// vecSpecials are the operand values the cores' edge semantics turn on.
var vecSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, // denormals
	math.MaxFloat32, -math.MaxFloat32, 3e38, 1.5e30, // products that overflow
	6, -6, 1, -1, 0.1, 5.9999995, 6.0000005,
}

// vecOperand fills n values from a cheap deterministic mix of ordinary
// magnitudes and, about one in four, a special.
func vecOperand(n int, seed uint32) []float32 {
	s := seed*2654435761 + 1
	next := func() uint32 {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		return s
	}
	out := make([]float32, n)
	for i := range out {
		r := next()
		if r%4 == 0 {
			out[i] = vecSpecials[int(r>>8)%len(vecSpecials)]
		} else {
			out[i] = (float32(r>>8)/float32(1<<24) - 0.5) * 16
		}
	}
	return out
}

func requireSameFloats(t testing.TB, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d: got %g (bits %08x), want %g (bits %08x)",
				label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// nzCap is how many lhs elements vec.GemmRow lists per call to its vector
// core; the sweeps below cross it.
const nzCap = vec.NZCap

// gemmRowGo is vec.GemmRow's definition: a[kk]·b[kk*bStride:] added into
// the row in kk order, a zero a[kk] skipped. The float32 conversion forbids
// fusing the product into the add, as in the cores.
func gemmRowGo(row, a []float32, aStride int, b []float32, bStride int) {
	for ai, off := 0, 0; ai < len(a); ai, off = ai+aStride, off+bStride {
		av := a[ai]
		if av == 0 {
			continue
		}
		for j, bv := range b[off : off+len(row)] {
			row[j] += float32(av * bv)
		}
	}
}

// checkGemmRow compares vec.GemmRow with its definition on a row of b's
// rows bStride apart (bStride > len(row): a part of an output row).
func checkGemmRow(t testing.TB, row, a []float32, aStride int, b []float32, bStride int) {
	t.Helper()
	got, want := slices.Clone(row), slices.Clone(row)
	vec.GemmRow(got, a, aStride, b, bStride, new(vec.NZList))
	gemmRowGo(want, a, aStride, b, bStride)
	requireSameFloats(t, "GemmRow", got, want)
}

// TestVecCoresBitIdentity sweeps every output length 0…67 (empty, pure
// scalar tail, one to eight 8-wide steps plus each tail) at every
// sub-slice offset 0…7 of its backing array, so the loads and stores hit
// every alignment, on operands seeded from vecSpecials.
func TestVecCoresBitIdentity(t *testing.T) {
	seed := uint32(0)
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 7; off++ {
			seed += 3
			dst := vecOperand(off+n, seed)[off:]

			// k from 0 past nzCap, so the list flushes mid-row and ends on
			// every remainder of the four-wide step; about a quarter of the
			// lhs is ±0 (skipped) and some of it NaN/Inf (not skipped).
			k := int(seed) % (nzCap + 9)
			for _, stride := range []int{1, 3} {
				a := vecOperand(off+max(0, (k-1)*stride+1), seed+1)[off:]
				b := vecOperand(off+k*(n+2), seed+2)[off:]
				checkGemmRow(t, dst, a, stride, b[:k*n], n)
				checkGemmRow(t, dst, a, stride, b, n+2)
			}
		}
	}
	// Every special against every special, in every lane of an 8-wide step
	// and of the scalar tail.
	for _, av := range vecSpecials {
		for _, bv := range vecSpecials {
			for _, yv := range vecSpecials {
				a, b, y := make([]float32, 5), make([]float32, 5*11), make([]float32, 11)
				for i := range a {
					a[i] = av
				}
				for i := range b {
					b[i] = bv
				}
				for i := range y {
					y[i] = yv
				}
				checkGemmRow(t, y, a, 1, b, 11)
			}
		}
	}
}

// TestVecCoresStayInBounds: vec.GemmRow writes exactly the row it was given —
// the elements either side keep their sentinel.
func TestVecCoresStayInBounds(t *testing.T) {
	const sentinel = 12345
	for n := 0; n <= 40; n++ {
		buf := make([]float32, n+16)
		for i := range buf {
			buf[i] = sentinel
		}
		dst := buf[8 : 8+n : 8+n]
		vec.GemmRow(dst, vecOperand(6, 7), 1, vecOperand(6*n, 8), n, new(vec.NZList))
		for i, v := range buf {
			if (i < 8 || i >= 8+n) && v != sentinel {
				t.Fatalf("n=%d: buf[%d] = %g, outside the row handed to GemmRow", n, i, v)
			}
		}
	}
}

// FuzzVecCores reads its input as float32 bit patterns, so the fuzzer
// reaches every NaN payload, denormal and sign combination, and carves
// vec.GemmRow's operands out of them: k and the lhs stride come from the two
// leading arguments, the output length from how many floats there are.
func FuzzVecCores(f *testing.F) {
	var specials []byte
	for _, a := range vecSpecials {
		for _, b := range vecSpecials {
			specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(a))
			specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(b))
		}
	}
	f.Add(uint8(3), uint8(4), specials)
	f.Add(uint8(36), uint8(8), specials)
	f.Add(uint8(1), uint8(0), specials[:4*19])
	f.Add(uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kSel, strideSel uint8, data []byte) {
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		// vals = a[(k-1)×stride+1] ‖ row[n] ‖ b[k×n]
		k, stride := 1+int(kSel)%(nzCap+8), 1+int(strideSel)%3
		if lhs := (k-1)*stride + 1; len(vals) >= lhs {
			n := (len(vals) - lhs) / (k + 1)
			checkGemmRow(t, vals[lhs:lhs+n], vals[:lhs], stride, vals[lhs+n:lhs+n+k*n], n)
		}
	})
}
