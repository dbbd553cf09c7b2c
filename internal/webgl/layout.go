// Package webgl implements the WebGL backend of the library over the
// simulated device in internal/glsim. It is the Go counterpart of the
// backend described in Section 4.1 of the paper and reproduces its design
// decisions:
//
//   - tensors live in 2-D float textures; a "shader compiler" maps
//     high-dimensional logical coordinates onto physical texture space,
//     squeezing size-1 dimensions (the ~1.3x logical-mapping optimization,
//     which the declared work of a sampled operand counts: samplerTerms);
//   - operations compile to fragment-shader programs that compute every
//     output value from its own index (Figure 4, Listing 2), written over
//     runs of values — one coordinate decode and window clip per pixel,
//     operands read a row at a time — with each value's arithmetic and its
//     order the reference kernel's: every kernel of the range table
//     (kernels.RangeKernels, Softmax and the element-wise table's ops
//     among them), installed in one loop on the body native runs;
//   - every program declares the work one dispatch costs the modelled
//     device — its kernel's cost (kernels.Work: fetches and ALU operations
//     as closed forms of its shapes) plus the compiled samplers' terms and
//     the packed matmul's shared samples (work.go) — which is what
//     tf.time() and the paper's ablations read, never the host's clock;
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
