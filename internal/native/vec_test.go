package native

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// Differential tests for the vector cores: each AVX2 body against its
// pure-Go body, compared by bit pattern. Two NaNs count as equal whatever
// their payloads (see vec.go: which payload survives NaN∘NaN is operand
// order, which the compiler picks for the Go bodies); everything else —
// rounding, ±0, ±Inf, denormals, where a NaN appears at all — must match
// to the bit.

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

// The check functions run one core on both bodies. They call the AVX2
// side through its vec.go wrapper, so the wrapper's part of the contract
// (gemmRow's zero-skip and compaction, the bounds it derives) is held to
// the Go body too.

func checkGemmRow(t testing.TB, row, a []float32, aStride int, b []float32) {
	t.Helper()
	got, want := slices.Clone(row), slices.Clone(row)
	gemmRow(got, a, aStride, b)
	gemmRowGo(want, a, aStride, b)
	requireSameFloats(t, "gemmRow", got, want)
}

func checkDwPixel(t testing.TB, dst, x, w []float32, xRowStride, xTapStride, wRowStride, rows, taps int) {
	t.Helper()
	got, want := slices.Clone(dst), slices.Clone(dst)
	dwPixel(got, x, w, xRowStride, xTapStride, wRowStride, rows, taps)
	dwPixelGo(want, x, w, xRowStride, xTapStride, wRowStride, rows, taps)
	requireSameFloats(t, "dwPixel", got, want)
}

func checkBiasAct(t testing.TB, dst, bias []float32) {
	t.Helper()
	for kind, name := range map[actKind]string{actNone: "none", actRelu: "relu", actRelu6: "relu6"} {
		got, want := slices.Clone(dst), slices.Clone(dst)
		biasAct(got, bias, kind)
		biasActGo(want, bias, kind)
		requireSameFloats(t, "biasAct "+name, got, want)
	}
}

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: the Go bodies are the only ones that run")
	}
}

// TestVecCoresBitIdentity sweeps every output length 0…67 (empty, pure
// scalar tail, one to eight 8-wide steps plus each tail) at every
// sub-slice offset 0…7 of its backing array, so the loads and stores hit
// every alignment, on operands seeded from vecSpecials.
func TestVecCoresBitIdentity(t *testing.T) {
	requireAVX2(t)
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
				b := vecOperand(off+k*n, seed+2)[off:]
				checkGemmRow(t, dst, a, stride, b)
			}

			// A 3×3 filter clipped to every rows×taps rectangle, strides as
			// a stride-2 dilation-1 layer would pass them.
			for rows := 1; rows <= 3; rows++ {
				for taps := 1; taps <= 3; taps++ {
					xRow, xTap, wRow := 5*n+1, n, 3*n
					x := vecOperand(off+(rows-1)*xRow+(taps-1)*xTap+n, seed+1)[off:]
					w := vecOperand(off+(rows-1)*wRow+taps*n, seed+2)[off:]
					checkDwPixel(t, dst, x, w, xRow, xTap, wRow, rows, taps)
				}
			}

			checkBiasAct(t, dst, vecOperand(off+n, seed+1)[off:])
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
				checkGemmRow(t, y, a, 1, b)
				checkDwPixel(t, y, b, b[11:], 22, 11, 22, 2, 2)
				checkBiasAct(t, y, b[:11])
			}
		}
	}
}

// TestVecCoresStayInBounds: a core writes exactly the slice it was given —
// the elements either side keep their sentinel.
func TestVecCoresStayInBounds(t *testing.T) {
	requireAVX2(t)
	const sentinel = 12345
	for n := 0; n <= 40; n++ {
		buf := make([]float32, n+16)
		for i := range buf {
			buf[i] = sentinel
		}
		dst := buf[8 : 8+n : 8+n]
		gemmRow(dst, vecOperand(6, 7), 1, vecOperand(6*n, 8))
		dwPixel(dst, vecOperand(4*n, 9), vecOperand(4*n, 10), 2*n, n, 2*n, 2, 2)
		biasAct(dst, vecOperand(n, 11), actRelu6)
		for i, v := range buf {
			if (i < 8 || i >= 8+n) && v != sentinel {
				t.Fatalf("n=%d: buf[%d] = %g, outside the slice handed to the cores", n, i, v)
			}
		}
	}
}

// FuzzVecCores reads its input as float32 bit patterns, so the fuzzer
// reaches every NaN payload, denormal and sign combination, and carves
// the three cores' operands out of them: k and the tap rectangle come
// from the two leading arguments, the output length from how many floats
// there are.
func FuzzVecCores(f *testing.F) {
	requireAVX2(f)
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
	f.Fuzz(func(t *testing.T, kSel, tapSel uint8, data []byte) {
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}

		// vals = a[k] ‖ row[n] ‖ b[k×n]
		k := 1 + int(kSel)%(nzCap+8)
		if len(vals) >= k {
			n := (len(vals) - k) / (k + 1)
			checkGemmRow(t, vals[k:k+n], vals[:k], 1, vals[k+n:k+n+k*n])
		}

		// vals = dst[c] ‖ x[rows×taps×c] ‖ w[rows×taps×c]
		rows, taps := 1+int(tapSel)%3, 1+int(tapSel)/3%3
		c := len(vals) / (2*rows*taps + 1)
		x := vals[c : c+rows*taps*c]
		w := vals[c+rows*taps*c:]
		checkDwPixel(t, vals[:c], x, w, taps*c, c, taps*c, rows, taps)

		checkBiasAct(t, vals[:len(vals)/2], vals[len(vals)/2:])
	})
}
