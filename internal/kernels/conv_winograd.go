package kernels

import (
	"fmt"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
	"mnn/internal/winograd"
)

// WinogradConv is the prepared state of the Winograd convolution following
// Figure 4 of the paper: weights are transformed once at pre-inference time
// (W' = G·W·Gᵀ), inputs are transformed per tile (X' = Bᵀ·X·B), the Hadamard
// product over channels is re-ordered into one matrix multiplication per
// transform position, and outputs are transformed back (Y = Aᵀ·Y'·A).
//
// Transforms are applied per axis with independent matrices, so asymmetric
// kernels (1×7, 7×1, …) are handled by the same code path — this is what
// makes the engine free of the case-by-case bottleneck shown in Figure 8.
// Each axis is a linComb over whole channel packs, eight channels per SIMD
// register: tiles are read straight from the NC4HW4 source into the GEMM
// operand, and the product goes straight to the destination with bias and
// activation fused.
type WinogradConv struct {
	attrs  graph.Conv2DAttrs
	ic, oc int

	nh, nw int // output tile size per axis
	mh, mw int // transform size per axis (n + k - 1)

	// inH, inW are Bᵀ along each axis, outH, outW Aᵀ. The axis applied first
	// (H) drops zero coefficients, the second keeps them — as rectTransform,
	// whose bits these transforms reproduce, skips and does not.
	inH, inW, outH, outW linComb

	// packedW holds the transformed weights, one ic×oc matrix per transform
	// position (the right operand of Figure 4's per-position matmul) in
	// 64-byte GEMM panels.
	packedW []*matmul.PackedB
	bias    []float32 // oc rounded up to whole pairs of packs
	lo, hi  float32   // activation clamp
	simd    bool      // matmul.HaveAVX2: transforms run linCombNC4

	// tileBlock is U in Figure 4: how many tiles are gathered into one
	// matmul batch. The transforms borrow 16·mh·mw floats of whichever GEMM
	// operand is idle, so tileBlock·min(ic, oc) must be at least 16.
	tileBlock int

	rs winogradRun
}

type winogradRun struct {
	s, d          []float32
	H, W, OH, OW  int
	ph, pw        int
	ic4, oc4      int
	tilesX        int
	tilesPerImage int
	totalTiles    int
	workspace     []float32
	wsPer         int
}

// DefaultTileBlock is the default number of Winograd tiles batched into one
// per-position matrix multiplication (U in Figure 4).
const DefaultTileBlock = 64

// PrepareWinograd transforms weights for F(nh×nw, kh×kw) Winograd
// convolution. weight is [oc, ic, kh, kw]; bias may be nil. The convolution
// must have stride 1, dilation 1 and group 1; tile sizes must satisfy
// n+k-1 ≤ 12 on each axis. An axis with kernel size 1 uses the identity
// transform (n=1).
func PrepareWinograd(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs, nh, nw int) (*WinogradConv, error) {
	if strideOr1(a.StrideH) != 1 || strideOr1(a.StrideW) != 1 {
		return nil, fmt.Errorf("winograd conv requires stride 1, got %dx%d", a.StrideH, a.StrideW)
	}
	if dilOr1(a.DilationH) != 1 || dilOr1(a.DilationW) != 1 {
		return nil, fmt.Errorf("winograd conv requires dilation 1")
	}
	if a.Group > 1 {
		return nil, fmt.Errorf("winograd conv requires group 1, got %d", a.Group)
	}
	kh, kw := a.KernelH, a.KernelW
	if kh == 1 {
		nh = 1
	}
	if kw == 1 {
		nw = 1
	}
	if nh < 1 || nw < 1 {
		return nil, fmt.Errorf("invalid tile size %dx%d", nh, nw)
	}
	matsH, err := winograd.Generate(nh, kh, winograd.DefaultF)
	if err != nil {
		return nil, err
	}
	matsW, err := winograd.Generate(nw, kw, winograd.DefaultF)
	if err != nil {
		return nil, err
	}
	oc, ic := weight.Dim(0), weight.Dim(1)
	mh, mw := matsH.M, matsW.M
	wc := &WinogradConv{
		attrs: *a, ic: ic, oc: oc,
		nh: nh, nw: nw, mh: mh, mw: mw,
		inH: newLinComb(matsH.BT, mh, mh, true), inW: newLinComb(matsW.BT, mw, mw, false),
		outH: newLinComb(matsH.AT, nh, mh, true), outW: newLinComb(matsW.AT, nw, mw, false),
		simd:      matmul.HaveAVX2(),
		tileBlock: DefaultTileBlock,
	}
	// wT is [mh*mw][ic][oc]: PackB copies each position's matrix into panels,
	// so the staging copy dies with this call.
	wT := make([]float32, mh*mw*ic*oc)
	w := weight.Data()
	// Transform each output channel's filters in parallel: for wide layers
	// (512×512) this is millions of small transforms and dominates
	// pre-inference time otherwise. One-shot goroutines are fine here —
	// this is pre-inference, not the hot path.
	sched.Spawn(4, oc, func(_, start, end int) {
		kTile := make([]float32, kh*kw)
		tTile := make([]float32, mh*mw)
		scratch := make([]float32, mh*kw)
		for o := start; o < end; o++ {
			for i := 0; i < ic; i++ {
				copy(kTile, w[(o*ic+i)*kh*kw:(o*ic+i+1)*kh*kw])
				// W' = G_h (kh→mh rows) · W · G_wᵀ (kw→mw cols).
				rectTransform(tTile, kTile, matsH.G, matsW.G, mh, kh, kw, mw, scratch)
				for p := 0; p < mh*mw; p++ {
					wT[(p*ic+i)*oc+o] = tTile[p]
				}
			}
		}
	})
	wc.packedW = make([]*matmul.PackedB, mh*mw)
	for p := 0; p < mh*mw; p++ {
		wc.packedW[p] = matmul.PackB(wT[p*ic*oc:(p+1)*ic*oc], ic, oc)
	}
	wc.bias = make([]float32, tensor.AlignUp(oc, 8))
	if bias != nil {
		copy(wc.bias, bias.Data())
	}
	wc.lo, wc.hi = clampBounds(a.ReLU, a.ReLU6)
	return wc, nil
}

// linComb is one axis of a Winograd transform, a rows×cols matrix, as lists
// of terms: output row r is the sum of coef[t] times source row idx[t] < cols
// over its cnt[r] terms, which lie one row after the other in idx and coef,
// each row's in ascending source order.
type linComb struct {
	cols     int
	cnt, idx []int
	coef     []float32
}

func newLinComb(m []float32, rows, cols int, skipZero bool) linComb {
	lc := linComb{cols: cols, cnt: make([]int, rows)}
	for r := 0; r < rows; r++ {
		for p, c := range m[r*cols : (r+1)*cols] {
			if c == 0 && skipZero {
				continue
			}
			lc.cnt[r]++
			lc.idx = append(lc.idx, p)
			lc.coef = append(lc.coef, c)
		}
	}
	return lc
}

// apply computes the first `rows` rows of the combination over rows of
// `chunks` chunks of eight floats: the four channels of one NC4HW4 pixel in
// each of two adjacent packs, a "split" apart (4 in the GEMM operands; 0 for
// a last pack without a neighbour, with lanes ≤ 4):
//
//	dst[r·dstRow + q·dstChunk + h·dstSplit + l] = Σ_t coef[t] · src[idx[t]·srcRow + q·srcChunk + h·srcSplit + l]
//
// for 4h+l < lanes, in term order from +0, multiply and add rounded
// separately: rectTransform's sums. With bias ≠ nil each sum gets bias[4h+l]
// added and is clamped to [lo, hi]. Lanes from `lanes` on — the pad lanes of
// a partial last pack, stale arena bytes — are never stored (linCombNC4
// computes them, the Go loop does not read them).
func (lc *linComb) apply(simd bool, dst []float32, dstRow, dstChunk, dstSplit int, src []float32, srcRow, srcChunk, srcSplit, chunks, rows, lanes int, bias []float32, lo, hi float32) {
	if rows <= 0 || chunks <= 0 {
		return
	}
	if simd {
		var b *float32
		if bias != nil {
			b = &bias[:8][0]
		}
		_ = dst[(rows-1)*dstRow+(chunks-1)*dstChunk+(lanes-1)/4*dstSplit+(lanes-1)%4]
		_ = src[(lc.cols-1)*srcRow+(chunks-1)*srcChunk+srcSplit+3]
		linCombNC4(&dst[0], dstRow, dstChunk, dstSplit, &src[0], srcRow, srcChunk, srcSplit, chunks, rows, &lc.cnt[0], &lc.idx[0], &lc.coef[0], lanes, b, lo, hi)
		return
	}
	t0 := 0
	for r := 0; r < rows; r++ {
		t1 := t0 + lc.cnt[r]
		for q := 0; q < chunks; q++ {
			var acc [8]float32
			for t := t0; t < t1; t++ {
				c, s := lc.coef[t], src[lc.idx[t]*srcRow+q*srcChunk:]
				for l := 0; l < lanes; l++ {
					acc[l] += float32(c * s[l/4*srcSplit+l%4])
				}
			}
			d := dst[r*dstRow+q*dstChunk:]
			for l := 0; l < lanes; l++ {
				v := acc[l]
				if bias != nil {
					v += bias[l]
					if v < lo {
						v = lo
					}
					if v > hi {
						v = hi
					}
				}
				d[l/4*dstSplit+l%4] = v
			}
		}
		t0 = t1
	}
}

// rectTransform computes dst = L · src · Rᵀ where L is lm×lk, src is lk×rk,
// R is rm×rk; dst is lm×rm. scratch must hold lm*rk floats. It is the weight
// transform at prepare time and, in the tests, the per-channel oracle of the
// pack-wise transforms: the products are written float32(a*b) so that no
// platform fuses them into the add.
func rectTransform(dst, src, l, r []float32, lm, lk, rk, rm int, scratch []float32) {
	// scratch = L(lm×lk) · src(lk×rk)
	for i := 0; i < lm; i++ {
		li := l[i*lk : (i+1)*lk]
		row := scratch[i*rk : (i+1)*rk]
		for j := range row {
			row[j] = 0
		}
		for p, lv := range li {
			if lv == 0 {
				continue
			}
			sp := src[p*rk : (p+1)*rk]
			for j, sv := range sp {
				row[j] += float32(lv * sv)
			}
		}
	}
	// dst = scratch(lm×rk) · Rᵀ: dst[i][j] = Σ_p scratch[i][p]·R[j][p]
	for i := 0; i < lm; i++ {
		si := scratch[i*rk : (i+1)*rk]
		for j := 0; j < rm; j++ {
			rj := r[j*rk : (j+1)*rk]
			var sum float32
			for p := 0; p < rk; p++ {
				sum += float32(si[p] * rj[p])
			}
			dst[i*rm+j] = sum
		}
	}
}

// WorkspaceSize returns the float32 count of the scratch workspace one
// worker lane needs for the given source spatial size. The pre-inference
// memory planner allocates Lanes() of these from the arena (Section 3.2 of
// the paper).
func (wc *WinogradConv) WorkspaceSize() int {
	mm := wc.mh * wc.mw
	u := wc.tileBlock
	// srcT [mm][U][ic] + dstT [mm][U][oc], and 3·mm floats of slack so that
	// the whole-pack read at the end of dstT's last row, when oc is not a
	// multiple of 4, stays inside the lane's own workspace.
	return mm*u*wc.ic + mm*u*wc.oc + 3*mm
}

// Run executes the convolution on the pool. src and dst must be NC4HW4.
// workspace may be nil (allocated internally) or a slice of at least
// WorkspaceSize()*p.Lanes() floats; with a planner-provided workspace,
// steady-state calls are allocation-free.
func (wc *WinogradConv) Run(dst, src *tensor.Tensor, p *sched.Pool, workspace []float32) {
	a := &wc.attrs
	N, H, W := src.Batch(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	ph, pw := graph.ConvPadding(H, W, a)
	lanes := p.Lanes()

	tilesY := tensor.UpDiv(OH, wc.nh)
	tilesX := tensor.UpDiv(OW, wc.nw)
	tilesPerImage := tilesY * tilesX
	totalTiles := N * tilesPerImage
	blocks := tensor.UpDiv(totalTiles, wc.tileBlock)

	wsPer := wc.WorkspaceSize()
	if len(workspace) < wsPer*lanes {
		workspace = make([]float32, wsPer*lanes)
	}
	wc.rs = winogradRun{
		s: src.Data(), d: dst.Data(),
		H: H, W: W, OH: OH, OW: OW, ph: ph, pw: pw,
		ic4: tensor.UpDiv(wc.ic, 4), oc4: tensor.UpDiv(wc.oc, 4),
		tilesX: tilesX, tilesPerImage: tilesPerImage, totalTiles: totalTiles,
		workspace: workspace, wsPer: wsPer,
	}
	// Tile blocks feed the chunked queue; finer-than-static chunks let the
	// atomic cursor rebalance uneven blocks across lanes.
	p.Run(blocks, sched.Chunk(blocks, lanes, elemChunksPerLane), wc)
}

// RunChunk implements sched.Task over tile-block indices.
func (wc *WinogradConv) RunChunk(worker, start, end int) {
	r := &wc.rs
	nh, nw, mh, mw := wc.nh, wc.nw, wc.mh, wc.mw
	ic, oc := wc.ic, wc.oc
	mm := mh * mw
	u := wc.tileBlock

	ws := r.workspace[worker*r.wsPer : (worker+1)*r.wsPer]
	srcT, dstT := ws[:mm*u*ic], ws[mm*u*ic:]

	for blk := start; blk < end; blk++ {
		t0 := blk * u
		t1 := min(t0+u, r.totalTiles)
		cnt := t1 - t0

		// ---- Input transform: X' = BT_h · X · B_w per tile and pair of
		// channel packs, the eight channels of every transform position p
		// stored together at srcT[p][tile][c…]. dstT is idle until the GEMM:
		// its head holds the half-transformed tile [xx][i][8] and the
		// zero-padded copy of a tile that crosses the image edge.
		half, edge := dstT[:mm*8], dstT[mm*8:2*mm*8]
		for t := t0; t < t1; t++ {
			n, rem := t/r.tilesPerImage, t%r.tilesPerImage
			y0, x0 := rem/r.tilesX*nh-r.ph, rem%r.tilesX*nw-r.pw
			inside := y0 >= 0 && x0 >= 0 && y0+mh <= r.H && x0+mw <= r.W
			for cz := 0; cz < r.ic4; cz += 2 {
				packs := min(2, r.ic4-cz)
				src := r.s[(n*r.ic4+cz)*r.H*r.W*4 : (n*r.ic4+cz+packs)*r.H*r.W*4]
				tile, row, split := edge, mw*4, (packs-1)*mm*4
				if inside {
					tile, row, split = src[(y0*r.W+x0)*4:], r.W*4, (packs-1)*r.H*r.W*4
				} else {
					clear(edge)
					xa, xb := max(0, -x0), min(mw, r.W-x0)
					for yy := max(0, -y0); yy < min(mh, r.H-y0) && xa < xb; yy++ {
						for k := 0; k < packs; k++ {
							copy(edge[k*mm*4+(yy*mw+xa)*4:k*mm*4+(yy*mw+xb)*4], src[k*r.H*r.W*4+((y0+yy)*r.W+x0+xa)*4:])
						}
					}
				}
				wc.inH.apply(wc.simd, half, 8, mh*8, 4, tile, row, 4, split, mw, mh, 8, nil, 0, 0)
				wc.inW.apply(wc.simd, srcT[(t-t0)*ic+cz*4:], u*ic, mw*u*ic, 4, half, mh*8, 8, 4, mh, mw, min(8, ic-cz*4), nil, 0, 0)
			}
		}

		// ---- Per-position matmul (Figure 4): Y'[p] = X'[p] · W'[p], on
		// the pre-packed panels (bitwise-identical to the direct GEMM).
		for p := 0; p < mm; p++ {
			wc.packedW[p].MulInto(dstT[p*u*oc:(p*u+cnt)*oc], srcT[p*u*ic:(p*u+cnt)*ic], cnt)
		}

		// ---- Output transform: Y = AT_h · Y' · A_w per tile and pair of
		// channel packs, bias + activation fused into the store of the rows
		// and columns of the tile that lie inside the output. srcT is idle
		// now and holds the half-transformed tile [xx][i][8].
		half = srcT[:mm*8]
		for t := t0; t < t1; t++ {
			n, rem := t/r.tilesPerImage, t%r.tilesPerImage
			oy0, ox0 := rem/r.tilesX*nh, rem%r.tilesX*nw
			vy, vx := min(nh, r.OH-oy0), min(nw, r.OW-ox0)
			for oz := 0; oz < r.oc4; oz += 2 {
				packs := min(2, r.oc4-oz)
				out := r.d[((n*r.oc4+oz)*r.OH*r.OW+oy0*r.OW+ox0)*4 : (n*r.oc4+oz+packs)*r.OH*r.OW*4]
				wc.outH.apply(wc.simd, half, 8, nh*8, 4, dstT[(t-t0)*oc+oz*4:], mw*u*oc, u*oc, (packs-1)*4, mw, vy, 8, nil, 0, 0)
				wc.outW.apply(wc.simd, out, 4, r.OW*4, (packs-1)*r.OH*r.OW*4, half, nh*8, 8, 4, vy, vx, min(8, oc-oz*4), wc.bias[oz*4:], wc.lo, wc.hi)
			}
		}
	}
}
