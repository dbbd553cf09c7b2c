// Package webgl implements the WebGL backend of the library over the
// simulated device in internal/glsim. It is the Go counterpart of the
// backend described in Section 4.1 of the paper and reproduces its design
// decisions:
//
//   - tensors live in 2-D float textures; a "shader compiler" maps
//     high-dimensional logical coordinates onto physical texture space,
//     squeezing size-1 dimensions (the ~1.3x logical-mapping optimization);
//   - operations compile to fragment-shader programs that compute every
//     output value from its own index (Figure 4, Listing 2); the hot ones
//     (convolutions, batch norm, element-wise, matmul, pools) are written
//     over runs of values — one coordinate decode and window clip per
//     pixel, operands read a row at a time — with each value's arithmetic
//     and its order unchanged, and the rest keep the per-value form
//     (runFlat);
//   - every program declares the work one dispatch costs the modelled
//     device (work.go: fetches and ALU operations as closed forms of its
//     shapes), which is what tf.time() and the paper's ablations read —
//     never the host's clock;
//   - data can be stored packed, four values per RGBA texel, instead of one
//     value in the red channel (the 1.3-1.4x packing optimization, §3.9);
//   - dispatch is asynchronous: ops enqueue programs and return immediately;
//     readback is either blocking (dataSync / gl.readPixels) or fence-based
//     (data / gl.fenceSync or EXT_disjoint_timer_query polling, §4.1.1);
//   - textures are recycled rather than freed, and paged to host memory
//     above a device-memory threshold (§4.1.2).
package webgl

import (
	"fmt"
	"math"

	"repro/internal/glsim"
	"repro/internal/tensor"
)

// texShape computes the physical texture dimensions (width, height in
// texels) for a tensor of the given element count. Values are stored in
// flat row-major logical order, either one per texel (R32F) or four per
// texel (RGBA32F) when packed.
func texShape(size int, packed bool, maxTextureSize int) (w, h int, err error) {
	texels := size
	if packed {
		texels = (size + 3) / 4
	}
	if texels == 0 {
		texels = 1
	}
	w = int(math.Ceil(math.Sqrt(float64(texels))))
	if w > maxTextureSize {
		return 0, 0, fmt.Errorf("webgl: tensor of %d elements exceeds device texture limits (%d)", size, maxTextureSize)
	}
	h = (texels + w - 1) / w
	if h > maxTextureSize {
		return 0, 0, fmt.Errorf("webgl: tensor of %d elements exceeds device texture limits (%d)", size, maxTextureSize)
	}
	return w, h, nil
}

// texData is the backend-side record of one data container (the analogue of
// the TextureData structs in the TensorFlow.js WebGL backend).
type texData struct {
	id    tensor.DataID
	shape []int
	dtype tensor.DataType
	size  int

	// tex is the device texture; nil when the data is paged out to host
	// memory (Section 4.1.2).
	tex    *glsim.Texture
	packed bool

	// paged holds the host copy while tex is nil.
	paged []float32

	// lastUse is a monotonic tick used for LRU paging decisions.
	lastUse int64
}

func (td *texData) bytes() int64 { return int64(td.size) * 4 }

// sampler is the output of the "shader compiler" for one input tensor: a
// closure mapping logical coordinates to values. The compiler emits strides
// only for kept (non-size-1) dimensions when squeezing is enabled — the
// logical-shape optimization of Section 4.1 ("the compiler will generate a
// getA(a, b, c, d) method whose implementation ignores a and c").
type sampler struct {
	// strides aligned to the original logical rank; squeezed-away and
	// broadcast dimensions carry stride 0.
	strides []int
	fetch   func(flat int) float32
}

// compileSampler builds a sampler for an input of the given shape as seen
// from an output of shape outShape (equal ranks; broadcasting per
// dimension). When squeeze is true, size-1 dimensions are compiled away.
func compileSampler(inShape, outShape []int, squeeze bool, fetch func(int) float32) sampler {
	outRank := len(outShape)
	inRank := len(inShape)
	inStrides := tensor.ComputeStrides(inShape)
	aligned := make([]int, outRank)
	for i := 0; i < outRank; i++ {
		j := i - (outRank - inRank)
		if j < 0 || inShape[j] == 1 {
			aligned[i] = 0
			continue
		}
		aligned[i] = inStrides[j]
	}
	if squeeze {
		// Nothing further: stride-0 dims already cost nothing in the
		// inner product. Squeezing matters for the coordinate *decode*
		// step, handled by coordDecoder below.
		return sampler{strides: aligned, fetch: fetch}
	}
	return sampler{strides: aligned, fetch: fetch}
}

// at computes the input flat index for output coordinates coords.
func (s sampler) at(coords []int) int {
	idx := 0
	for i, c := range coords {
		idx += c * s.strides[i]
	}
	return idx
}

// coordDecoder converts output flat indices to logical coordinates. With
// squeezing, only non-degenerate dimensions are decoded (fewer div/mod
// operations per texel — the measurable part of the §4.1 mapping
// optimization); the squeezed-away coordinates are always zero.
type coordDecoder struct {
	// dims are the sizes of decoded dimensions, innermost last.
	dims []int
	// axes[i] is the original axis of dims[i].
	axes []int
	rank int
}

func newCoordDecoder(shape []int, squeeze bool) coordDecoder {
	d := coordDecoder{rank: len(shape)}
	for i, s := range shape {
		if squeeze && s == 1 {
			continue
		}
		d.dims = append(d.dims, s)
		d.axes = append(d.axes, i)
	}
	return d
}

// decode fills coords (len == rank of the original shape) from a flat
// row-major index.
func (d coordDecoder) decode(flat int, coords []int) {
	for i := range coords {
		coords[i] = 0
	}
	for i := len(d.dims) - 1; i >= 0; i-- {
		dim := d.dims[i]
		coords[d.axes[i]] = flat % dim
		flat /= dim
	}
}
