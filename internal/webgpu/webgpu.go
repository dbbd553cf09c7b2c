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
	table map[string]kernels.OverrideKernel
}

// New creates a WebGPU backend.
func New(cfg webgl.Config) *Backend {
	b := &Backend{Backend: webgl.New(cfg)}
	b.initKernels()
	return b
}

// Name implements kernels.Backend.
func (b *Backend) Name() string { return "webgpu" }

// KernelOverride prefers the compute pipelines and falls back to the
// fragment-shader kernels for everything else.
func (b *Backend) KernelOverride(name string) (kernels.OverrideKernel, bool) {
	if k, ok := b.table[name]; ok {
		return k, true
	}
	return b.Backend.KernelOverride(name)
}

func (b *Backend) initKernels() {
	b.table = map[string]kernels.OverrideKernel{
		"BatchMatMul": b.matmulCompute,
	}
}

// matmulCompute is the tiled matrix-multiply pipeline. Each workgroup owns
// a TileSize×TileSize tile of the output; it marches over the shared
// dimension in TileSize steps, staging the A and B tiles into workgroup
// memory once and reusing each staged value TileSize times. What the
// pipeline does not specialize — transposed operands, and every malformed
// call, whose error the fragment kernel words — runs on the inherited
// fragment-shader program, on the device: declining with ErrFallback
// instead would read both operands back to the host for the reference
// kernel.
func (b *Backend) matmulCompute(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	fragment, _ := b.Backend.KernelOverride("BatchMatMul")
	if len(inputs) != 2 || attrs.Bool("transposeA", false) || attrs.Bool("transposeB", false) {
		return fragment(inputs, attrs, res)
	}
	a, x := inputs[0], inputs[1]
	if len(a.Shape) != 3 || len(x.Shape) != 3 {
		return fragment(inputs, attrs, res)
	}
	batchA, batchB := a.Shape[0], x.Shape[0]
	batch := max(batchA, batchB)
	m, k := a.Shape[1], a.Shape[2]
	if (batchA != batchB && batchA != 1 && batchB != 1) || x.Shape[1] != k {
		return fragment(inputs, attrs, res)
	}
	n := x.Shape[2]

	aTex := b.InputTexture(a)
	bTex := b.InputTexture(x)
	out, err := b.Output([]int{batch, m, n}, tensor.Float32, res)
	if err != nil {
		return err
	}

	tilesM := (m + TileSize - 1) / TileSize
	tilesN := (n + TileSize - 1) / TileSize
	groups := batch * tilesM * tilesN
	aMat, bMat := m*k, k*n

	prog := &glsim.ComputeProgram{
		Name:            "BatchMatMul(compute)",
		NumGroups:       groups,
		ThreadsPerGroup: TileSize * TileSize,
		// Shared memory: an A tile, a B tile and the accumulator tile.
		SharedSize: 3 * TileSize * TileSize,
		Work:       tiledMatMulWork(batch, m, k, n),
		Main: func(group int, shared []float32, store func(int, float32)) {
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
						aTile[r*TileSize+c] = aTex.FetchFlat(base + c)
					}
				}
				for r := 0; r < kLen; r++ {
					base := bOff + (k0+r)*n + colBase
					cLen := TileSize
					if colBase+cLen > n {
						cLen = n - colBase
					}
					for c := 0; c < cLen; c++ {
						bTile[r*TileSize+c] = bTex.FetchFlat(base + c)
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
							accRow[c] += av * bRow[c]
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
					store(outBase+(rowBase+r)*n+colBase+c, acc[r*TileSize+c])
				}
			}
		},
	}
	b.Device().ExecuteCompute(prog, out)
	return nil
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

var (
	_ kernels.Backend   = (*Backend)(nil)
	_ kernels.Overrider = (*Backend)(nil)
)
