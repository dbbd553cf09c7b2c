package native

import "repro/internal/kernels"

// The packed GEMM core: a cache-blocked micro-kernel shared by
// BatchMatMul, _FusedMatMul and the 1×1-pointwise FusedConv2D fast path.
//
// The naive core streams B rows through cache once per A row — for an
// m×k·k×n product it reads B m times. This core instead packs both
// operands once per call into panel layouts sized for the cache
// hierarchy and walks them with an MR×NR register tile:
//
//   - B is repacked into ⌈n/NR⌉ column panels, each k×NR contiguous, so
//     the micro-kernel's inner loop reads B sequentially (unit stride)
//     regardless of n.
//   - A is repacked into ⌈m/MR⌉ row panels, each k×MR contiguous, read
//     once per B panel with unit stride.
//   - The micro-kernel holds an MR×NR tile of C in registers across the
//     entire k loop: 2·MR·NR flops per 8 loads, instead of 2 flops per
//     2 loads in the naive loop.
//
// Short panels are zero-padded to MR/NR, so the micro-kernel has no edge
// variants; the store step clips to the valid tile.
//
// Determinism: each output element accumulates over k in one sequential
// loop inside one micro-kernel invocation — the k loop is never split
// across chunks or workers — so results are bit-identical for every
// worker count (though not bit-identical to the naive core, whose
// k-outer ordering associates the sums differently; parity between the
// two cores is tolerance-checked, see gemm_test.go).

const (
	gemmMR = 4 // rows of C per register tile
	gemmNR = 4 // cols of C per register tile
)

// packedB is B repacked into k×NR column panels, zero-padded to a whole
// number of panels.
type packedB struct {
	k, n   int
	panels []float32 // panel j at [j*k*gemmNR : (j+1)*k*gemmNR]
}

// Packing scratch (one B pack and one A panel per in-flight GEMM chunk)
// comes from the backend's per-replica float32 recycler, reused across
// calls to keep the hot path allocation-free after warmup. The panels are
// fully overwritten including zero padding, so they skip zeroing and
// tolerate poison.

// packB packs row-major B (k×n, row stride ldb) into NR-column panels
// held in recycler scratch — the path for rhs operands that are not
// reused across calls. The caller returns the panels to b.scratchF32.
func (b *Backend) packB(bBuf []float32, k, n, ldb int) packedB {
	panels := (n + gemmNR - 1) / gemmNR
	buf := b.scratchF32.Get(panels * k * gemmNR)
	return packBInto(buf, bBuf, k, n, ldb)
}

// packBInto packs row-major B (k×n, row stride ldb) into the NR-column
// panel layout inside buf, which must hold ⌈n/NR⌉·k·NR values.
func packBInto(buf, bBuf []float32, k, n, ldb int) packedB {
	panels := (n + gemmNR - 1) / gemmNR
	for j := 0; j < panels; j++ {
		dst := buf[j*k*gemmNR:]
		jc := j * gemmNR
		w := n - jc
		if w > gemmNR {
			w = gemmNR
		}
		for p := 0; p < k; p++ {
			src := bBuf[p*ldb+jc:]
			d := dst[p*gemmNR : p*gemmNR+gemmNR]
			for c := 0; c < w; c++ {
				d[c] = src[c]
			}
			for c := w; c < gemmNR; c++ {
				d[c] = 0
			}
		}
	}
	return packedB{k: k, n: n, panels: buf}
}

// packedBFor returns the cached panel layout of an immutable weight rhs,
// packing it on first use. Model weights are written once at load, so
// the entry stays valid until DisposeData drops it — every inference
// after the first skips the pack entirely.
func (b *Backend) packedBFor(w kernels.Input, k, n int) packedB {
	b.packMu.Lock()
	defer b.packMu.Unlock()
	pb, ok := b.packCache[w.DataID]
	if !ok {
		panels := (n + gemmNR - 1) / gemmNR
		pb = packBInto(make([]float32, panels*k*gemmNR), b.in(w), k, n, n)
		b.packCache[w.DataID] = pb
	}
	return pb
}

// packA packs rows [i0, i0+h) of row-major A (row stride lda) into one
// k×MR panel, zero-padding missing rows.
func packA(dst, aBuf []float32, i0, h, k, lda int) {
	for p := 0; p < k; p++ {
		d := dst[p*gemmMR : p*gemmMR+gemmMR]
		for r := 0; r < h; r++ {
			d[r] = aBuf[(i0+r)*lda+p]
		}
		for r := h; r < gemmMR; r++ {
			d[r] = 0
		}
	}
}

// micro4x4 computes one MR×NR tile: ap is a k×MR panel, bp a k×NR panel,
// both unit-stride. The tile is computed as two 2×4 half-tiles, each a
// full pass over k: a half-tile keeps 14 float32 values live (8
// accumulators + 2 A + 4 B), which fits amd64's 16 vector registers —
// the full 4×4 tile's 24 live values would spill accumulators to the
// stack on every k iteration. The B panel (k×NR) is read twice but is
// L1-resident. Each output element still accumulates over k in one
// sequential loop, so determinism across worker counts is unaffected.
func micro4x4(k int, ap, bp []float32, dst *[gemmMR * gemmNR]float32) {
	micro2x4(k, ap, bp, 0, dst)
	micro2x4(k, ap, bp, 2, dst)
}

// micro2x4 computes rows [r0, r0+2) of the register tile over the whole
// k loop. Each B value is consumed by both its products immediately
// after the load, keeping product live-ranges one statement long — the
// schedule that stops the register allocator from spilling them.
func micro2x4(k int, ap, bp []float32, r0 int, dst *[gemmMR * gemmNR]float32) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	for p := 0; p < k; p++ {
		a := ap[4*p+r0 : 4*p+r0+2 : 4*p+r0+2]
		bb := bp[4*p : 4*p+4 : 4*p+4]
		a0, a1 := a[0], a[1]
		b0 := bb[0]
		c00 += a0 * b0
		c10 += a1 * b0
		b1 := bb[1]
		c01 += a0 * b1
		c11 += a1 * b1
		b2 := bb[2]
		c02 += a0 * b2
		c12 += a1 * b2
		b3 := bb[3]
		c03 += a0 * b3
		c13 += a1 * b3
	}
	dst[r0*gemmNR], dst[r0*gemmNR+1], dst[r0*gemmNR+2], dst[r0*gemmNR+3] = c00, c01, c02, c03
	dst[r0*gemmNR+4], dst[r0*gemmNR+5], dst[r0*gemmNR+6], dst[r0*gemmNR+7] = c10, c11, c12, c13
}

// gemmEpilogue is the optional fused tail applied to each finished
// output row: bias add and activation (see epilogue in fused.go). Passed
// by value so the per-call construction stays off the heap; the zero
// value is a no-op epilogue.
type gemmEpilogue struct {
	bias    []float32
	actName string
	act     func(float32) float32
}

func (e gemmEpilogue) apply(row []float32) {
	epilogue(row, e.bias, e.actName, e.act)
}

// gemmPacked computes out[m×n] = A[m×k]·B(packed), parallelized over A
// row panels. out rows use stride ldc; A rows stride lda. A non-zero ep
// fuses bias+activation into the store.
func (b *Backend) gemmPacked(m, n, k int, aBuf []float32, lda int, pb packedB, out []float32, ldc int, ep gemmEpilogue) {
	rowPanels := (m + gemmMR - 1) / gemmMR
	colPanels := (n + gemmNR - 1) / gemmNR
	// Per row panel: pack k×MR once, then 2·k·MR flops per output column.
	cost := k * gemmMR * (2*n + 1)
	b.parallelFor(rowPanels, cost, func(lo, hi int) {
		apanel := b.scratchF32.Get(k * gemmMR)
		defer b.scratchF32.Put(apanel)
		var tile [gemmMR * gemmNR]float32
		for pi := lo; pi < hi; pi++ {
			i0 := pi * gemmMR
			h := m - i0
			if h > gemmMR {
				h = gemmMR
			}
			packA(apanel, aBuf, i0, h, k, lda)
			for j := 0; j < colPanels; j++ {
				micro4x4(k, apanel, pb.panels[j*k*gemmNR:(j+1)*k*gemmNR], &tile)
				jc := j * gemmNR
				w := n - jc
				if w > gemmNR {
					w = gemmNR
				}
				for r := 0; r < h; r++ {
					dst := out[(i0+r)*ldc+jc:]
					src := tile[r*gemmNR:]
					for c := 0; c < w; c++ {
						dst[c] = src[c]
					}
				}
			}
			for r := 0; r < h; r++ {
				ep.apply(out[(i0+r)*ldc : (i0+r)*ldc+n])
			}
		}
	})
}

// gemmSparseBail is the lhs zero fraction above which the packed core
// hands the product to the row-streaming loop: zero-skip removes work
// proportional to the sparsity, while the packed layout must multiply
// through the zeros. Post-ReLU activation matrices routinely run
// 40-60% zeros, where row-streaming wins outright.
const gemmSparseBail = 0.25

// lhsZeroFraction samples A's zero fraction at a deterministic stride
// (≤4096 probes, O(µs) against the O(m·n·k) product it steers). Same
// data → same estimate → same core, so outputs stay reproducible and
// bit-identical across worker counts.
func lhsZeroFraction(a []float32) float64 {
	stride := len(a)/4096 + 1
	zeros, probes := 0, 0
	for i := 0; i < len(a); i += stride {
		probes++
		if a[i] == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(probes)
}

// gemmAuto runs A[m×k]·B[k×n] through the core its lhs suits: the
// cache-blocked micro-kernel for dense operands, the row-streaming loop
// when sampling shows the lhs sparse enough for its zero-skip to win
// (activations after a relu-family epilogue).
func (b *Backend) gemmAuto(m, n, k int, aBuf, bBuf []float32, out []float32, ep gemmEpilogue) {
	if lhsZeroFraction(aBuf) >= gemmSparseBail {
		b.gemmNaive(m, n, k, aBuf, bBuf, out, ep)
		return
	}
	pb := b.packB(bBuf, k, n, n)
	defer b.scratchF32.Put(pb.panels)
	b.gemmPacked(m, n, k, aBuf, k, pb, out, n, ep)
}

// gemmAutoW is gemmAuto for products whose rhs is an immutable weight
// (the fused matmul and pointwise-conv paths): the packed panels come
// from the per-DataID cache instead of being rebuilt per call.
func (b *Backend) gemmAutoW(m, n, k int, aBuf []float32, w kernels.Input, out []float32, ep gemmEpilogue) {
	if lhsZeroFraction(aBuf) >= gemmSparseBail {
		b.gemmNaive(m, n, k, aBuf, b.in(w), out, ep)
		return
	}
	b.gemmPacked(m, n, k, aBuf, k, b.packedBFor(w, k, n), out, n, ep)
}

// gemmNaive is the k-outer j-inner row-streaming core with the
// activation-sparsity zero-skip: gemmAuto's choice for sparse lhs
// operands.
func (b *Backend) gemmNaive(m, n, k int, aBuf, bBuf []float32, out []float32, ep gemmEpilogue) {
	b.parallelFor(m, 2*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out[i*n : (i+1)*n]
			aRow := aBuf[i*k : (i+1)*k]
			for kk, av := range aRow {
				if av == 0 {
					continue
				}
				bRow := bBuf[kk*n : (kk+1)*n]
				for j, bv := range bRow {
					row[j] += av * bv
				}
			}
			ep.apply(row)
		}
	})
}
