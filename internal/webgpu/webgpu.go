// Package webgpu implements the experimental WebGPU backend the paper
// lists as future work (§4.3: "WebGPU provides a more generic way to
// express parallelizable computation on the GPU, which would allow us to
// write more optimized linear algebra kernels than the ones with the
// WebGL backend").
//
// The backend reuses the WebGL backend's entire data plane (textures,
// recycler, paging, fences) and overrides the hottest linear-algebra
// kernel with a compute-shader pipeline (glsim.ComputeProgram): a tiled
// matrix multiply that stages operand tiles in workgroup-shared memory;
// everything else inherits the fragment-shader kernels.
// Relative to the fragment-shader kernels, each loaded value is reused
// across a whole tile instead of being re-fetched per output element —
// exactly the "work groups and shared memory access" advantage the paper
// credits for CUDA's 3-10x lead over WebGL (§3.9).
package webgpu

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/webgl"
)

// TileSize is the square tile staged in workgroup-shared memory by the
// matmul pipeline.
const TileSize = 16

// Backend is the WebGPU backend: the WebGL data plane plus compute-shader
// kernel pipelines.
type Backend struct {
	*webgl.Backend
	table map[string]kernels.Kernel
	// matmuls keeps the tiled pipeline of each BatchMatMul call signature
	// (matmul), as webgl keeps its programs: a warmed dispatch builds
	// nothing and binds its operand textures to the command.
	matmuls *kernels.Memo[matmulPipeline]
	matmul  kernels.RangeKernel
}

// New creates a WebGPU backend.
func New(cfg webgl.Config) *Backend {
	b := &Backend{Backend: webgl.New(cfg)}
	b.initKernels()
	return b
}

// Name implements kernels.Backend.
func (b *Backend) Name() string { return "webgpu" }

// Kernel implements kernels.Backend: a compute pipeline where there is
// one, else the fragment-shader kernel.
func (b *Backend) Kernel(name string) (kernels.Kernel, bool) {
	if k, ok := b.table[name]; ok {
		return k, true
	}
	return b.Backend.Kernel(name)
}

func (b *Backend) initKernels() {
	b.matmul, _ = kernels.LookupKernel("BatchMatMul")
	b.matmuls = kernels.NewMemo(buildMatMul)
	b.table = map[string]kernels.Kernel{
		"BatchMatMul": b.matmulCompute,
	}
}

// matmulPipeline is one call signature's tiled pipeline and the output it
// writes; prog is nil for a call the pipeline does not specialize.
type matmulPipeline struct {
	prog  *glsim.ComputeProgram
	shape []int
}

// matmulCompute runs the tiled matrix-multiply pipeline of the call's
// signature, built on its first dispatch. What the pipeline does not
// specialize — transposed operands, and every malformed call, whose error
// the fragment kernel words — runs on the inherited fragment-shader
// program, on the device.
func (b *Backend) matmulCompute(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	p, err := b.matmuls.Get(b.matmul, inputs, &attrs)
	if err != nil || p.prog == nil {
		fragment, _ := b.Backend.Kernel("BatchMatMul")
		return fragment(inputs, attrs, res)
	}
	operands := [2]*glsim.Texture{b.InputTexture(inputs[0]), b.InputTexture(inputs[1])}
	out, err := b.Output(p.shape, tensor.Float32, res)
	if err != nil {
		return err
	}
	b.Device().ExecuteCompute(p.prog, operands[:], out)
	return nil
}

// buildMatMul builds the tiled pipeline of a resolved BatchMatMul call.
// Each workgroup owns a TileSize×TileSize tile of the output; it marches
// over the shared dimension in TileSize steps, staging the A and B tiles
// into workgroup memory once and reusing each staged value TileSize times.
// The operands are the dispatch's bound inputs: A and B, in order. The
// memo has resolved the call, so A is [batchA,] m×k, B [batchB,] k×n and
// the output [batch,] m×n.
func buildMatMul(_ kernels.RangeKernel, res kernels.Resolved, inputs []kernels.Input, attrs kernels.Attrs) matmulPipeline {
	if attrs.TransposeA || attrs.TransposeB {
		return matmulPipeline{}
	}
	a, b := inputs[0].Shape, inputs[1].Shape
	rank := len(a)
	m, k, n := a[rank-2], a[rank-1], b[rank-1]
	batch, batchA, batchB := 1, 1, 1
	if rank == 3 {
		batch, batchA, batchB = res.Shape[0], a[0], b[0]
	}
	tilesM := (m + TileSize - 1) / TileSize
	tilesN := (n + TileSize - 1) / TileSize
	aMat, bMat := m*k, k*n

	return matmulPipeline{shape: res.Shape, prog: &glsim.ComputeProgram{
		Name:            "BatchMatMul(compute)",
		NumGroups:       batch * tilesM * tilesN,
		ThreadsPerGroup: TileSize * TileSize,
		// Shared memory: an A tile, a B tile and the accumulator tile.
		SharedSize: 3 * TileSize * TileSize,
		Work:       tiledMatMulWork(batch, m, k, n),
		Main: func(in [][]float32, group int, shared, dst []float32) {
			a, b := in[0], in[1]
			tileN := group % tilesN
			rest := group / tilesN
			tileM := rest % tilesM
			p := rest / tilesM
			aOff := (p % batchA) * aMat
			bOff := (p % batchB) * bMat
			rowBase := tileM * TileSize
			colBase := tileN * TileSize

			aTile := shared[:TileSize*TileSize]
			bTile := shared[TileSize*TileSize : 2*TileSize*TileSize]
			acc := shared[2*TileSize*TileSize:]
			for i := range acc {
				acc[i] = 0
			}

			for k0 := 0; k0 < k; k0 += TileSize {
				kLen := TileSize
				if k0+kLen > k {
					kLen = k - k0
				}
				// Stage the A and B tiles into workgroup memory: one
				// fetch per element, reused TileSize times below.
				for r := 0; r < TileSize; r++ {
					row := rowBase + r
					if row >= m {
						break
					}
					base := aOff + row*k + k0
					for c := 0; c < kLen; c++ {
						aTile[r*TileSize+c] = a[base+c]
					}
				}
				for r := 0; r < kLen; r++ {
					base := bOff + (k0+r)*n + colBase
					cLen := TileSize
					if colBase+cLen > n {
						cLen = n - colBase
					}
					for c := 0; c < cLen; c++ {
						bTile[r*TileSize+c] = b[base+c]
					}
				}
				// Multiply the staged tiles.
				rLen := TileSize
				if rowBase+rLen > m {
					rLen = m - rowBase
				}
				cLen := TileSize
				if colBase+cLen > n {
					cLen = n - colBase
				}
				for r := 0; r < rLen; r++ {
					for kk := 0; kk < kLen; kk++ {
						av := aTile[r*TileSize+kk]
						if av == 0 {
							continue
						}
						bRow := bTile[kk*TileSize:]
						accRow := acc[r*TileSize:]
						for c := 0; c < cLen; c++ {
							accRow[c] += float32(av * bRow[c])
						}
					}
				}
			}
			// Write the finished tile.
			rLen := TileSize
			if rowBase+rLen > m {
				rLen = m - rowBase
			}
			cLen := TileSize
			if colBase+cLen > n {
				cLen = n - colBase
			}
			outBase := p * m * n
			for r := 0; r < rLen; r++ {
				for c := 0; c < cLen; c++ {
					dst[outBase+(rowBase+r)*n+colBase+c] = acc[r*TileSize+c]
				}
			}
		},
	}}
}

// tiledMatMulWork is what one dispatch of the tiled pipeline costs the
// modelled device. Every A element is fetched from its texture once per
// column tile and every B element once per row tile — 1/TileSize of the
// fragment shader's two fetches per multiply-add; the multiply-adds then
// read the staged tiles from workgroup memory (the A value once per row
// step, the B value once per product; a zero A value's skipped products
// are charged as taken).
func tiledMatMulWork(batch, m, k, n int) glsim.Work {
	tilesM := int64((m + TileSize - 1) / TileSize)
	tilesN := int64((n + TileSize - 1) / TileSize)
	aElems := int64(batch) * int64(m) * int64(k)
	bElems := int64(batch) * int64(k) * int64(n)
	macs := aElems * int64(n)
	return glsim.Work{
		Fetches: aElems*tilesN + bElems*tilesM,
		Shared:  aElems*tilesN + macs,
		ALU:     2 * macs,
	}
}

var _ kernels.Backend = (*Backend)(nil)
