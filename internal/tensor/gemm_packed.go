package tensor

import (
	"repro/internal/kernels"
)

// Cache-blocked packed GEMM: the hot loop for the conv-lowered products.
//
// The streaming kernels in matmul.go keep C in memory: every multiply-add
// pays a load and a store of C, and the transpose cases walk A or B with a
// column stride. This path instead runs a register-blocked microkernel on
// 4×16 tiles of C (Goto & van de Geijn, "Anatomy of High-Performance Matrix
// Multiplication", TOMS 2008): the 64 partial sums stay in eight 8-wide
// registers across a whole depth chunk, and each step reuses one 16-wide
// row of op(B) across four rows of op(A).
//
// Kernels. The two 4×16 kernels are AVX2 assembly (gemm_amd64.s, amd64
// without the purego tag). Without them every product streams: a pure-Go
// kernel of the same tile shape measured no faster than the streaming
// kernels (see routePacked), so there is no portable packed path.
//
// Operands, in depth chunks of at most gemmKC, packed on the running
// goroutine's stack so nothing is retained between calls:
//
//   - !transB (axpy order): a 4-tall chunk of op(A) is packed k-major
//     (dst[p*4+r]) with alpha folded in; op(B)'s 16-wide rows are already
//     contiguous and are read in place through their row stride.
//   - transB (dot order): op(B)'s columns are rows of the stored B, so a
//     16-wide chunk is packed k-major (dst[p*16+j]); op(A) is read in place
//     through its row and depth strides.
//
// Bitwise contract (the repo-wide determinism invariant): k is never split
// across tasks, each C element is produced by exactly one task, and the
// kernels replay the serial reference's per-element operation sequence
// exactly —
//
//   - !transB: the tile gets the beta prologue (scaleRange), then for
//     ascending p the update c[i][j] += s·b[p][j] with s = alpha·a[i][p],
//     skipped when s == ±0. The alpha multiply is folded into the A pack —
//     the identical float32 product the serial kernel forms per (i, p) — and
//     the skip tests the packed value. The assembly multiplies with VMULPS
//     and adds with VADDPS, two roundings per step exactly like Go's scalar
//     s*b then +=, which Go never fuses into an FMA on amd64; a VFMADD would
//     round once and change bits. Between depth chunks C goes back to
//     memory, where the serial kernel keeps it all along.
//   - transB: the sum starts at +0, adds a[i][p]·b[j][p] for ascending p,
//     and lands as c[i][j] = beta-scaled C plus alpha·sum (storeDot).
//     Between depth chunks the running sums wait in a stack array; a
//     float32 store and reload is exact.
//
// Lanes of a vector register hold different columns j, never different p,
// so vectorising changes which elements advance together, not the order of
// any element's own sum.

const (
	// gemmMR × gemmNR is the microkernel tile: four rows of two 8-wide
	// registers, eight accumulators, leaving room for the two B halves, the
	// broadcast A value and the products in the sixteen YMM registers.
	gemmMR = 4
	gemmNR = 16
	// gemmKC is the depth of one packed chunk; a 16-wide B chunk is 16 KiB
	// of stack. The conv weight gradients here are at most 256 deep, so each
	// B strip packs once; the deepest conv forward (576) runs three chunks.
	gemmKC = 256
	// gemmMB is how many 4-row panels of dot-order sums one B chunk serves
	// before it is repacked for the next block of panels.
	gemmMB = 8
)

// minPackedFlops routes small products to the streaming kernels. With the
// AVX2 kernels the tile shape alone decides (see minPackedK), so it
// defaults to 0. A variable so SetPackedMinFlops and the tests can move it.
var minPackedFlops = 0

// minPackedK is the measured depth gate for the AVX2 kernels. The streaming
// kernel never touches a C row whose A values are all zero (ReLU-dead rows
// of a weight gradient), while a 4×16 tile always loads and stores C, so a
// shallow product loses: routing the Linear weight gradient at batch 2
// (k = 2) through the tiles cut the mlp-int8 workload from 890 to 547
// images/s. Tests lower it to cover small k.
var minPackedK = 16

// SetPackedMinFlops overrides the flop threshold above which Gemm routes
// through the packed microkernel path and returns the previous value. It
// exists so benchmarks can measure the streaming and packed paths on the
// same shape (set it above m·n·k to force streaming, to 0 to force packed
// wherever a whole tile fits); both paths produce bitwise-identical
// results, so the override never changes outputs. Without the AVX2 kernels
// every product streams whatever the threshold. Not synchronized — call
// only around otherwise-quiescent Gemm use, as the kernel benchmarks do.
func SetPackedMinFlops(v int) int {
	prev := minPackedFlops
	minPackedFlops = v
	return prev
}

// PackedKernels reports whether this build and CPU have the AVX2 packed
// GEMM kernels; without them every Gemm runs the streaming kernels.
func PackedKernels() bool { return useAVX2 }

// routePacked reports whether an m×n×k product runs packed: the AVX2
// kernels are present, at least one whole tile fits, and the product is
// above the flop threshold and deep enough.
//
// Only the AVX2 kernels pay for packing. A pure-Go 4×16 kernel cannot keep
// its 64 sums in registers, and on a 2-vCPU AMD EPYC host (-tags purego,
// one worker) it ran 8.05 GFLOP/s against streaming's 7.74 at 256³ and
// 8.85 against 9.17 at 16×784×288, with the weight-gradient order slower
// still (4.5 against 5.3) — no win to route for.
func routePacked(m, n, k int) bool {
	return useAVX2 && m >= gemmMR && n >= gemmNR && k >= minPackedK && m*n*k >= minPackedFlops
}

// packedGemm is one packed call: the operands its tile tasks read and the
// tiling. It is pooled with its task bound once, so the steady state
// dispatches onto the kernels pool without allocating.
type packedGemm struct {
	transA, transB bool
	m, n, k        int
	alpha, beta    float32
	a, b, c        []float32

	rowPanels, colStrips            int
	colBlocks, panelsPer, stripsPer int

	task func(t int) // g.tile, bound when g is made
}

// packPool recycles calls across Gemms — a bounded channel freelist,
// concurrency-safe for nested or concurrent Gemms.
var packPool = make(chan *packedGemm, 8)

func getPackedGemm() *packedGemm {
	select {
	case g := <-packPool:
		return g
	default:
		g := &packedGemm{}
		g.task = g.tile
		return g
	}
}

func putPackedGemm(g *packedGemm) {
	g.a, g.b, g.c = nil, nil, nil // do not pin the caller's operands
	select {
	case packPool <- g:
	default:
	}
}

// gemmPacked runs the packed path when routePacked admits the shape,
// reporting whether it handled the call. Gemm has already handled k == 0
// and alpha == 0. The packed region covers the tile-aligned prefix
// [0, mfull)×[0, nfull); the bottom row strip and right column strip (at
// most 3 rows / 15 columns) run through the streaming gemmTile over the
// unpacked operands — disjoint C regions, so the combination is still
// exactly the serial reference per element.
func gemmPacked(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) bool {
	if !routePacked(m, n, k) {
		return false
	}
	mfull := m - m%gemmMR
	nfull := n - n%gemmNR
	rowPanels, colStrips := mfull/gemmMR, nfull/gemmNR

	// Tile the packed region over the pool in units of whole micro-tiles:
	// the !transB order prefers row splits and goes 2-D for the
	// short-and-wide conv shapes — the streaming path's heuristic in tile
	// units — while the transB order splits columns only, so each task
	// packs each of its B chunks once per block of panels.
	tiles := kernels.Workers()
	if lim := m*n*k/minFlopsPerTile + 1; tiles > lim {
		tiles = lim
	}
	rowBlocks, colBlocks := 1, tiles
	if !transB {
		rowBlocks = tiles
		if rowBlocks > rowPanels {
			rowBlocks = rowPanels
		}
		colBlocks = (tiles + rowBlocks - 1) / rowBlocks
		if lim := nfull / minTileCols; colBlocks > lim {
			colBlocks = lim
		}
	}
	if colBlocks > colStrips {
		colBlocks = colStrips
	}
	if colBlocks < 1 {
		colBlocks = 1
	}
	tasks := rowBlocks * colBlocks

	g := getPackedGemm()
	g.transA, g.transB, g.m, g.n, g.k = transA, transB, m, n, k
	g.alpha, g.beta, g.a, g.b, g.c = alpha, beta, a, b, c
	g.rowPanels, g.colStrips, g.colBlocks = rowPanels, colStrips, colBlocks
	g.panelsPer = (rowPanels + rowBlocks - 1) / rowBlocks
	g.stripsPer = (colStrips + colBlocks - 1) / colBlocks
	if tasks == 1 {
		g.tile(0)
	} else {
		kernels.Run(tasks, g.task)
	}

	if mfull < m {
		gemmTile(transA, transB, mfull, m, 0, n, m, n, k, alpha, a, b, beta, c)
	}
	if nfull < n {
		gemmTile(transA, transB, 0, mfull, nfull, n, m, n, k, alpha, a, b, beta, c)
	}
	putPackedGemm(g)
	return true
}

// tile computes task t's block of whole micro-tiles: row panels
// [plo, phi) × column strips [slo, shi).
func (g *packedGemm) tile(t int) {
	plo := (t / g.colBlocks) * g.panelsPer
	phi := min(plo+g.panelsPer, g.rowPanels)
	slo := (t % g.colBlocks) * g.stripsPer
	shi := min(slo+g.stripsPer, g.colStrips)
	if plo >= phi || slo >= shi {
		return
	}
	if g.transB {
		g.dotTiles(plo, phi, slo, shi)
	} else {
		g.axpyTiles(plo, phi, slo, shi)
	}
}

// axpyTiles runs the axpy-order kernel: per row panel, the beta prologue,
// then for each depth chunk one A pack reused across the task's strips of
// B, read in place.
func (g *packedGemm) axpyTiles(plo, phi, slo, shi int) {
	var ap [gemmMR * gemmKC]float32
	n, k, c := g.n, g.k, g.c
	for pi := plo; pi < phi; pi++ {
		for i := pi * gemmMR; i < (pi+1)*gemmMR; i++ {
			scaleRange(c[i*n+slo*gemmNR:i*n+shi*gemmNR], g.beta)
		}
		for p0 := 0; p0 < k; p0 += gemmKC {
			kc := min(gemmKC, k-p0)
			packA(g.transA, pi, p0, kc, g.m, k, g.alpha, g.a, ap[:gemmMR*kc])
			for si := slo; si < shi; si++ {
				microAxpy(kc, ap[:], g.b[p0*n+si*gemmNR:], n, c[pi*gemmMR*n+si*gemmNR:], n)
			}
		}
	}
}

// dotTiles runs the dot-order kernel: per column strip and block of up to
// gemmMB row panels, each depth chunk of the strip is packed once and run
// against every panel of the block, whose sums carry over between chunks.
func (g *packedGemm) dotTiles(plo, phi, slo, shi int) {
	var bp [gemmNR * gemmKC]float32
	var acc [gemmMB][gemmMR * gemmNR]float32
	n, k, c := g.n, g.k, g.c
	// op(A)[i, p] sits at a[i*rs + p*ps].
	rs, ps := k, 1
	if g.transA {
		rs, ps = 1, g.m
	}
	for si := slo; si < shi; si++ {
		packed := false // bp holds the strip's only chunk (k ≤ gemmKC)
		for pb := plo; pb < phi; pb += gemmMB {
			pe := min(pb+gemmMB, phi)
			clear(acc[:pe-pb])
			for p0 := 0; p0 < k; p0 += gemmKC {
				kc := min(gemmKC, k-p0)
				if !packed {
					packB(si, p0, kc, k, g.b, bp[:gemmNR*kc])
					packed = kc == k
				}
				for pi := pb; pi < pe; pi++ {
					microDot(kc, g.a[pi*gemmMR*rs+p0*ps:], rs, ps, bp[:], &acc[pi-pb])
				}
			}
			for pi := pb; pi < pe; pi++ {
				ct := c[pi*gemmMR*n+si*gemmNR:]
				for r := 0; r < gemmMR; r++ {
					storeDot(ct[r*n:r*n+gemmNR], acc[pi-pb][r*gemmNR:(r+1)*gemmNR], g.alpha, g.beta)
				}
			}
		}
	}
}

// packA copies depth chunk [p0, p0+kc) of row panel `panel` (gemmMR rows of
// op(A)) into dst, k-major, times alpha: dst[q*mr+r] = alpha·op(A)[i0+r,
// p0+q] — the axpy kernel's s = alpha·a[i][p], formed here once instead of
// once per column.
func packA(transA bool, panel, p0, kc, m, k int, alpha float32, a, dst []float32) {
	i0 := panel * gemmMR
	if !transA {
		r0 := a[(i0+0)*k+p0 : (i0+0)*k+p0+kc : (i0+0)*k+p0+kc]
		r1 := a[(i0+1)*k+p0 : (i0+1)*k+p0+kc : (i0+1)*k+p0+kc]
		r2 := a[(i0+2)*k+p0 : (i0+2)*k+p0+kc : (i0+2)*k+p0+kc]
		r3 := a[(i0+3)*k+p0 : (i0+3)*k+p0+kc : (i0+3)*k+p0+kc]
		for q := 0; q < kc; q++ {
			d := dst[4*q : 4*q+4 : 4*q+4]
			d[0] = alpha * r0[q]
			d[1] = alpha * r1[q]
			d[2] = alpha * r2[q]
			d[3] = alpha * r3[q]
		}
		return
	}
	// A stored k×m: op(A)[i, p] = a[p*m+i] — the pack turns the strided
	// column walk into one pass of contiguous 4-wide reads.
	for q := 0; q < kc; q++ {
		p := p0 + q
		s := a[p*m+i0 : p*m+i0+4 : p*m+i0+4]
		d := dst[4*q : 4*q+4 : 4*q+4]
		d[0] = alpha * s[0]
		d[1] = alpha * s[1]
		d[2] = alpha * s[2]
		d[3] = alpha * s[3]
	}
}

// packB copies depth chunk [p0, p0+kc) of column strip `strip` of
// op(B) = Bᵀ (B stored n×k) into dst, k-major: dst[q*nr+j] =
// b[(j0+j)*k+p0+q] — sixteen B rows interleaved so the dot kernel reads one
// contiguous 16-wide group per step.
func packB(strip, p0, kc, k int, b, dst []float32) {
	s := b[strip*gemmNR*k+p0 : (strip+1)*gemmNR*k]
	for q := 0; q < kc; q++ {
		d := dst[q*gemmNR : q*gemmNR+gemmNR : q*gemmNR+gemmNR]
		d[0], d[1], d[2], d[3] = s[q], s[k+q], s[2*k+q], s[3*k+q]
		d[4], d[5], d[6], d[7] = s[4*k+q], s[5*k+q], s[6*k+q], s[7*k+q]
		d[8], d[9], d[10], d[11] = s[8*k+q], s[9*k+q], s[10*k+q], s[11*k+q]
		d[12], d[13], d[14], d[15] = s[12*k+q], s[13*k+q], s[14*k+q], s[15*k+q]
	}
}

// storeDot lands one row of dot-order sums: c[j] = prologue(c[j]) +
// alpha·acc[j], with the prologue branching exactly like scaleRange.
func storeDot(c, acc []float32, alpha, beta float32) {
	c = c[:len(acc)]
	switch {
	case beta == 0:
		// The explicit 0 + matches the serial sequence (zero the cell, then
		// +=): it rounds a -0 product up to +0, which a bare assign would
		// not.
		for j, s := range acc {
			c[j] = 0 + alpha*s
		}
	case beta == 1:
		for j, s := range acc {
			c[j] += alpha * s
		}
	default:
		for j, s := range acc {
			c[j] = c[j]*beta + alpha*s
		}
	}
}
