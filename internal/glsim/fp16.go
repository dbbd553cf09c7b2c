// Package glsim simulates a WebGL graphics device: float textures, a GPU
// command queue running on its own goroutine, fragment-shader programs
// executed over the output texels in parallel, fences (gl.fenceSync) and
// the EXT_disjoint_timer_query extension.
//
// The package substitutes for the browser WebGL API the paper's backend is
// built on (Section 4.1). It keeps the fragment-shader execution model — a
// program computes each output texel from that texel's index and read-only
// input textures, in parallel, with no shared memory — so the backend built
// on top of it has to solve the same problems the paper describes:
// logical-to-physical layout, packing, asynchronous readback and texture
// lifecycle management. A program's main function receives a contiguous
// range of texels and the output texture's own storage for it
// (Program.Main), which is what lets the simulator run at row speed; the
// per-texel contract is the same and is enforced by the backend's
// TestKernelContract rather than by the signature.
//
// The simulation is functional plus a timing model. Programs compute real
// values on the host; how long the modelled GPU took is a separate matter,
// kept by one monotonic clock in integer picoseconds (Device.ClockPS) that
// advances by the work each dispatch declares (Work: texture fetches,
// workgroup-memory reads, ALU operations, plus its invocations and a launch
// cost, spread over the shader cores it can occupy) and by the modelled
// driver cost of creating and deleting textures. Nothing in the package
// reads the host's clock, so every modelled number is a pure function of
// what was dispatched: it repeats to the digit on any host, at any worker
// count, however fast or slow the simulator itself runs.
package glsim

import "math"

// Float32ToFloat16Bits converts a float32 to IEEE 754 half-precision bits
// with round-to-nearest-even, the conversion mobile GPUs apply when a
// device only supports 16-bit float textures (Section 4.1.3).
func Float32ToFloat16Bits(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16((bits >> 16) & 0x8000)
	exp := int32((bits>>23)&0xff) - 127 + 15
	mant := bits & 0x7fffff

	switch {
	case exp >= 31:
		if (bits>>23)&0xff == 0xff {
			if mant != 0 {
				return sign | 0x7e00 // NaN
			}
			return sign | 0x7c00 // Inf
		}
		return sign | 0x7c00 // overflow -> Inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow -> 0
		}
		// Subnormal half: shift mantissa (with implicit leading 1).
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// Round to nearest even.
		rem := mant & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp<<10) | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++
		}
		return half
	}
}

// Float16BitsToFloat32 expands half-precision bits back to float32.
func Float16BitsToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := -1
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | uint32(127-15+e+1)<<23 | mant<<13)
	case exp == 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return float32(math.NaN())
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// RoundToFloat16 rounds a float32 through half precision, losing the bits a
// 16-bit float texture cannot represent.
func RoundToFloat16(f float32) float32 {
	return Float16BitsToFloat32(Float32ToFloat16Bits(f))
}
