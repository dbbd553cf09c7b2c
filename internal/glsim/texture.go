package glsim

import "fmt"

// TextureFormat selects the texel layout of a texture.
type TextureFormat int

const (
	// R32F stores one float per texel — the unpacked layout the paper's
	// backend started with ("we only use the red channel", Figure 4).
	R32F TextureFormat = iota
	// RGBA32F stores four floats per texel — the packed layout of the
	// §3.9 packing optimization.
	RGBA32F
)

// Channels returns the number of float channels per texel.
func (f TextureFormat) Channels() int {
	if f == RGBA32F {
		return 4
	}
	return 1
}

// String implements fmt.Stringer.
func (f TextureFormat) String() string {
	if f == RGBA32F {
		return "RGBA32F"
	}
	return "R32F"
}

// Texture is a 2-D float texture on the simulated device. Width and Height
// are in texels; the backing store holds Width*Height*Channels floats in
// row-major texel order.
type Texture struct {
	Width  int
	Height int
	Format TextureFormat
	// HalfFloat marks a 16-bit float texture: every value written is
	// rounded through half precision, as on iOS WebGL devices
	// (Section 4.1.3).
	HalfFloat bool

	// data is made, written and dropped by queued commands only: it is nil
	// until the queue reaches the texture's creation.
	data    []float32
	device  *Device
	deleted bool
}

// Texels returns the texel count of the texture.
func (t *Texture) Texels() int { return t.Width * t.Height }

// Len returns the number of float values the texture holds.
func (t *Texture) Len() int { return t.Width * t.Height * t.Format.Channels() }

// Bytes returns the texture's device memory footprint. Half-float textures
// take two bytes per value.
func (t *Texture) Bytes() int64 {
	if t.HalfFloat {
		return int64(t.Len()) * 2
	}
	return int64(t.Len()) * 4
}

// Fetch reads channel c of texel (x, y). It is the texture-sampling
// primitive shader programs use; programs must treat input textures as
// read-only.
func (t *Texture) Fetch(x, y, c int) float32 {
	return t.data[(y*t.Width+x)*t.Format.Channels()+c]
}

// FetchFlat reads the i-th float value in texel-major order.
func (t *Texture) FetchFlat(i int) float32 { return t.data[i] }

// Floats is the texture's storage in texel-major order, for programs that
// read an operand a row at a time. Like Fetch it is read-only, and valid
// while a program that takes the texture as input executes.
func (t *Texture) Floats() []float32 { return t.data }

// render runs p over the texels [lo, hi) of t, its inputs' host slices in,
// writing straight into the texture's storage, then applies the half-float
// rounding store would have applied per value.
func (t *Texture) render(p *Program, in [][]float32, lo, hi int) {
	ch := t.Format.Channels()
	dst := t.data[lo*ch : hi*ch : hi*ch]
	p.Main(in, lo, hi, dst)
	if t.HalfFloat {
		for i, v := range dst {
			dst[i] = RoundToFloat16(v)
		}
	}
}

// store writes value into flat position i, applying half-float rounding
// when the texture is 16-bit: the write path of uploads. Only the device's
// GPU goroutine calls store.
func (t *Texture) store(i int, v float32) {
	if t.HalfFloat {
		v = RoundToFloat16(v)
	}
	t.data[i] = v
}

// String implements fmt.Stringer.
func (t *Texture) String() string {
	return fmt.Sprintf("Texture(%dx%d %s, fp16=%v)", t.Width, t.Height, t.Format, t.HalfFloat)
}
