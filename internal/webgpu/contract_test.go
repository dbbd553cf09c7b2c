package webgpu

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/webgl"
)

// computeGoldens are digests of the tiled matmul's output bits recorded at
// the commit before the device clock and the range-form programs landed
// (amd64; elsewhere the compiler may fuse the multiply-add).
var computeGoldens = map[string]string{
	"tile/fp32":     "575e8762cdcf198a",
	"tile/fp16":     "8de491cfd4e6389a",
	"ragged/fp32":   "f584e979757ecba2",
	"ragged/fp16":   "45a88045522a7d4f",
	"bcastA/fp32":   "932097944c6fb75d",
	"bcastA/fp16":   "c2ecc046d06496d7",
	"bcastB/fp32":   "edd5630078aff9ef",
	"bcastB/fp16":   "b8b170ce08e5ba5d",
	"zeroRows/fp32": "355c1ed1d408bbfb",
	"zeroRows/fp16": "355c1ed1d408bbfb",
}

// TestComputeMatMulContract runs the compute pipeline on tile-aligned and
// ragged shapes with 1, 3 and 7 workers × packed/unpacked × fp32/fp16:
// output bits must not depend on how workgroups were spread over workers
// or on the texel layout, and must equal the recorded goldens.
func TestComputeMatMulContract(t *testing.T) {
	rng := rand.New(rand.NewSource(20190331))
	rnd := func(shape ...int) []float32 {
		vals := make([]float32, tensor.ShapeSize(shape))
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
			if i%11 == 0 {
				vals[i] = 0 // the staged-tile loop skips zero A values
			}
		}
		return vals
	}
	type mmCase struct {
		label  string
		a, b   []int
		av, bv []float32
	}
	var cases []mmCase
	for _, c := range []mmCase{
		{label: "tile", a: []int{1, 16, 32}, b: []int{1, 32, 16}},
		{label: "ragged", a: []int{2, 20, 33}, b: []int{2, 33, 18}},
		{label: "bcastA", a: []int{1, 5, 7}, b: []int{3, 7, 40}},
		{label: "bcastB", a: []int{3, 17, 3}, b: []int{1, 3, 1}},
		{label: "zeroRows", a: []int{1, 0, 4}, b: []int{1, 4, 5}},
	} {
		c.av, c.bv = rnd(c.a...), rnd(c.b...)
		cases = append(cases, c)
	}
	recorded := map[string]string{}
	for _, half := range []bool{false, true} {
		precision := "fp32"
		if half {
			precision = "fp16"
		}
		for _, packed := range []bool{true, false} {
			for _, workers := range []int{1, 3, 7} {
				cfg := webgl.DefaultConfig()
				cfg.Packed = packed
				cfg.Device.HalfFloatOnly = half
				cfg.Device.Workers = workers
				cfg.Device.TextureAllocCost = -1
				b := New(cfg)
				for _, c := range cases {
					aID, bID := tensor.NewDataID(), tensor.NewDataID()
					b.Write(aID, c.av, c.a, tensor.Float32)
					b.Write(bID, c.bv, c.b, tensor.Float32)
					var out kernels.TensorInfo
					err := b.matmulCompute([]kernels.Input{
						{DataID: aID, Shape: c.a, DType: tensor.Float32},
						{DataID: bID, Shape: c.b, DType: tensor.Float32},
					}, kernels.Attrs{}, &out)
					if err != nil {
						t.Fatalf("%s: %v", c.label, err)
					}
					h := fnv.New64a()
					fmt.Fprintf(h, "%v|", out.Shape)
					var buf [4]byte
					for _, v := range b.ReadSync(out.DataID) {
						bits := math.Float32bits(v)
						buf[0], buf[1], buf[2], buf[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
						h.Write(buf[:])
					}
					key := c.label + "/" + precision
					got := fmt.Sprintf("%016x", h.Sum64())
					if prev, ok := recorded[key]; ok && prev != got {
						t.Errorf("%s packed=%v workers=%d: digest %s, another configuration gave %s", key, packed, workers, got, prev)
					}
					recorded[key] = got
					for _, id := range []tensor.DataID{aID, bID, out.DataID} {
						b.DisposeData(id)
					}
				}
				b.Close()
			}
		}
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	for key, got := range recorded {
		if computeGoldens[key] != got {
			t.Errorf("%s: digest %s, golden %q", key, got, computeGoldens[key])
		}
	}
}

// TestTiledMatMulWorkMatchesAWalk checks the pipeline's declared work
// against a walk of its own loop nest: every texture fetch that stages a
// tile, every workgroup-memory read of the multiply, every multiply-add.
func TestTiledMatMulWorkMatchesAWalk(t *testing.T) {
	for _, c := range []struct{ batch, m, k, n int }{
		{1, 16, 32, 16}, {2, 20, 33, 18}, {3, 5, 7, 40}, {1, 17, 3, 1}, {1, 256, 256, 256}, {1, 0, 4, 5}, {2, 3, 0, 4},
	} {
		var want glsim.Work
		tiles := func(x int) int { return (x + TileSize - 1) / TileSize }
		for group := 0; group < c.batch*tiles(c.m)*tiles(c.n); group++ {
			rowBase := group / tiles(c.n) % tiles(c.m) * TileSize
			colBase := group % tiles(c.n) * TileSize
			rLen, cLen := min(TileSize, c.m-rowBase), min(TileSize, c.n-colBase)
			for k0 := 0; k0 < c.k; k0 += TileSize {
				kLen := min(TileSize, c.k-k0)
				want.Fetches += int64(rLen*kLen + kLen*cLen) // stage the A and B tiles
				for r := 0; r < rLen; r++ {
					for kk := 0; kk < kLen; kk++ {
						want.Shared++ // the staged A value
						for col := 0; col < cLen; col++ {
							want.Shared++ // the staged B value
							want.ALU += 2
						}
					}
				}
			}
		}
		if got := tiledMatMulWork(c.batch, c.m, c.k, c.n); got != want {
			t.Errorf("%d×[%d,%d]·[%d,%d]: tiledMatMulWork = %+v, walk counts %+v", c.batch, c.m, c.k, c.k, c.n, got, want)
		}
	}
}
