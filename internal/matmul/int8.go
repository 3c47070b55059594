package matmul

import "unsafe"

// Int8 GEMM for the quantized inference path (paper Section 3.1): byte
// operands, int32 accumulation, one 4×16 micro-kernel. Per channel quad the
// kernel broadcasts the four activation bytes of a pixel, widens them to
// int16 (sign-extended, or zero-extended for the unsigned left operand of
// post-ReLU activations) and multiplies them against pre-widened int16
// weights with VPMADDWD, which sums adjacent products into int32 lanes;
// VPADDD accumulates. A pair sum is at most 2·255·128, so no instruction
// saturates, and int32 addition wraps exactly like Go's — the product equals
// MulInt8Ref bit for bit on every byte input, at any depth, under any split
// of the rows. That is as many instructions as the fp32 kernel's ymm
// VFMADD231PS for the same multiply-adds. (VPMADDUBSW would halve them but
// saturates its int16 pair sums; it is not used.)
//
// Weights are widened at pack time rather than in the kernel: byte panels
// with a VPMOVSXBW per weight vector ran the 169×512×1000 GEMM 14 % slower
// (1.99 vs 1.74 ms, minima of four alternating runs) and a bandwidth-bound
// 8×4096×1000 one no faster.

// PanelWidthInt8 is the column width of a packed int8 panel: 16 int32
// accumulators = two AVX2 registers = four NC4HW4 channel packs.
const PanelWidthInt8 = 16

// quadWords is the int16 count of one channel quad of a panel: 4 rows × 16
// columns.
const quadWords = 4 * PanelWidthInt8

// PackedBInt8 is a pre-packed right-hand int8 GEMM operand: the K×N
// row-major matrix widened to int16 and rearranged into
// ceil(N/PanelWidthInt8) panels of ceil(K/4) channel quads, zero-padded on
// both axes. A quad is four 32-byte vectors of (even row, odd row) pairs in
// the lane order VPMADDWD wants — see quadIndex. Quantized weights are
// packed once at pre-inference time, so steady-state multiplies are
// allocation-free.
type PackedBInt8 struct {
	K, N int
	kq   int     // K in quads, rounded up
	data []int16 // [panels][kq][quadWords]
	simd bool    // run the assembly micro-kernel (HaveAVX2 unless Portable)
}

// quadIndex is where row c < 4, column l < 16 of a quad lives. The kernel
// holds a pixel's widened bytes as V = (b0,b1),(b2,b3),(b0,b1),… down the
// int32 lanes and V′, the same with the pairs swapped. Words 0–31 multiply V:
// lane l carries rows 0,1 of column l when l is even, rows 2,3 when odd.
// Words 32–63 multiply V′ and carry the other pair, so the two products sum
// to all four rows of column l in lane l.
func quadIndex(c, l int) int { return (c>>1^l&1)*2*PanelWidthInt8 + l*2 + c&1 }

// index is where row p, column j of the matrix lives in data.
func (pb *PackedBInt8) index(p, j int) int {
	return (j/PanelWidthInt8*pb.kq+p/4)*quadWords + quadIndex(p%4, j%PanelWidthInt8)
}

// newPackedBInt8 returns the packed form of the k×n zero matrix.
func newPackedBInt8(k, n int) *PackedBInt8 {
	panels := (n + PanelWidthInt8 - 1) / PanelWidthInt8
	pb := &PackedBInt8{K: k, N: n, kq: (k + 3) / 4, simd: HaveAVX2()}
	pb.data = make([]int16, panels*pb.kq*quadWords)
	return pb
}

// PackBInt8 packs the row-major k×n int8 matrix b.
func PackBInt8(b []int8, k, n int) *PackedBInt8 {
	if len(b) < k*n {
		panic("matmul: PackBInt8 buffer too small for declared dimensions")
	}
	pb := newPackedBInt8(k, n)
	for p := 0; p < k; p++ {
		for j, v := range b[p*n : (p+1)*n] {
			pb.data[pb.index(p, j)] = int16(v)
		}
	}
	return pb
}

// PackWeightInt8 is PackWeight for an int8 weight whose taps start at whole
// channel packs: row t·cp + i of the (taps·cp)×n matrix holds tap t of input
// channel i < c, and rows c ≤ i < cp of each tap are zero.
func PackWeightInt8(w []int8, n, c, taps, cp int) *PackedBInt8 {
	if len(w) < n*c*taps || cp < c {
		panic("matmul: PackWeightInt8 buffer too small for declared dimensions")
	}
	pb := newPackedBInt8(taps*cp, n)
	for j0 := 0; j0 < n; j0 += PanelWidthInt8 {
		for p := 0; p < pb.K; p++ {
			t, i := p/cp, p%cp
			if i >= c {
				continue
			}
			quad := pb.data[(j0/PanelWidthInt8*pb.kq+p/4)*quadWords:][:quadWords]
			for l := range min(PanelWidthInt8, n-j0) {
				quad[quadIndex(p%4, l)] = int16(w[((j0+l)*c+i)*taps+t])
			}
		}
	}
	return pb
}

// Portable returns a view of pb that always runs the plain-Go twin of the
// micro-kernel — the oracle that differential tests compare the assembly with.
func (pb *PackedBInt8) Portable() *PackedBInt8 {
	q := *pb
	q.simd = false
	return &q
}

// MulInt8Ref computes the reference byte×int8→int32 GEMM dst = a·b with
// wrapping int32 accumulation: a is m×k (signed or unsigned bytes), b is
// k×n, both row-major. It is the one oracle of the int8 kernels, their Go
// twin and the fuzzers.
func MulInt8Ref[A int8 | uint8](dst []int32, a []A, b []int8, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(dst) < m*n {
		panic("matmul: MulInt8Ref buffer too small for declared dimensions")
	}
	for i := 0; i < m; i++ {
		di := dst[i*n : (i+1)*n]
		for j := range di {
			di[j] = 0
		}
		for p, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			avi := int32(av)
			for j, bv := range b[p*n : (p+1)*n] {
				di[j] += avi * int32(bv)
			}
		}
	}
}

// Int8GemmScratch is the scratch length MulInto and MulIntoU8 need: none.
// It and their last parameter remain for callers written against the
// kernel that needed a row-sum buffer.
func Int8GemmScratch(m int) int { return 0 }

// MulInto computes dst = a·B for the m×K row-major int8 a, writing the m×N
// row-major int32 product, bitwise MulInt8Ref's for every input.
func (pb *PackedBInt8) MulInto(dst []int32, a []int8, m int, _ []int32) {
	pb.MulRows(dst, unsafe.Slice((*uint8)(unsafe.Pointer(unsafe.SliceData(a))), len(a)), m, false)
}

// MulIntoU8 is MulInto for an unsigned left operand (0..255), the case of
// every post-ReLU activation tensor.
func (pb *PackedBInt8) MulIntoU8(dst []int32, a []uint8, m int, _ []int32) {
	pb.MulRows(dst, a, m, true)
}

// MulRows is MulInto and MulIntoU8 over bytes, read as int8 unless unsigned:
// the micro-kernel over a row-major left operand, where a row is a pixel K
// bytes after the last, its quads 4 bytes apart. The K%4 bytes that end a
// row are no whole quad (reading one would run past the last row); their
// products are added here, from the same packed weights.
func (pb *PackedBInt8) MulRows(dst []int32, a []uint8, m int, unsigned bool) {
	k, n := pb.K, pb.N
	if len(a) < m*k || len(dst) < m*n {
		panic("matmul: buffer too small for declared dimensions")
	}
	taps := oneTap
	if k < 4 {
		taps = nil
	}
	pb.run(&int8Out{raw: dst, stride: n}, a, 4, k, m, taps, k/4, unsigned)
	for p := k &^ 3; p < k; p++ {
		for i := 0; i < m; i++ {
			av := int32(a[i*k+p])
			if !unsigned {
				av = int32(int8(av))
			}
			for j := range dst[i*n : (i+1)*n] {
				dst[i*n+j] += av * int32(pb.data[pb.index(p, j)])
			}
		}
	}
}

// Requant turns a column's int32 sum into the float32 activation
// clamp(float32(sum)·Scale[o] + Bias[o]): v < Lo becomes Lo and v > Hi
// becomes Hi, multiply and add rounded separately. Scale and Bias hold N
// rounded up to whole panels.
type Requant struct {
	Scale, Bias []float32
	Lo, Hi      float32
}

// MulTapsNC4Into is the micro-kernel as a quantized convolution: PackedB's
// MulTapsNC4Into over a byte image of the NC4HW4 source. a holds the
// quantized activations in the source's own [pack][pixel][4] geometry, one
// byte per float with pad lanes zero, so Tap.A, aPack and aPix count bytes;
// Tap.B counts packed rows and is a multiple of 4, every tap's kc channels
// starting a fresh quad (the caller packs a weight with each tap's channels
// zero-padded to whole packs). For q < pixels and o < N
//
//	dst[(o/4)·dstPack + q·4 + o%4] = rq(Σ_t Σ_c a[t.A + (c/4)·aPack + q·aPix + c%4]·B[t.B+c][o])
//
// with the sum exact in wrapping int32, so a pixel's bits depend on that
// pixel and its tap list alone. A tap left out of the list contributes the
// exact 0 a zero-filled patch would. dst is written in whole packs, pad
// lanes included.
func (pb *PackedBInt8) MulTapsNC4Into(dst []float32, dstPack int, a []uint8, aPack, aPix, pixels int, taps []Tap, kc int, unsigned bool, rq *Requant) {
	if pixels <= 0 {
		return
	}
	n4 := (pb.N + 3) / 4
	cols := (pb.N + PanelWidthInt8 - 1) / PanelWidthInt8 * PanelWidthInt8
	kq := (kc + 3) / 4
	reach := (kq-1)*aPack + (pixels-1)*aPix + 4 // bytes a tap reads from its A on
	if kc < 1 || len(dst) < (n4-1)*dstPack+pixels*4 || len(rq.Scale) < cols || len(rq.Bias) < cols || aPix < 0 || aPack < 0 || dstPack < 0 {
		panic("matmul: buffer too small for declared dimensions")
	}
	for _, t := range taps {
		if t.A < 0 || t.A+reach > len(a) || t.B < 0 || t.B%4 != 0 || t.B/4+kq > pb.kq {
			panic("matmul: tap outside the source or the packed rows")
		}
	}
	pb.run(&int8Out{f32: dst, stride: dstPack, rq: rq}, a, aPack, aPix, pixels, taps, kq, unsigned)
}

// int8Out is where a 4×16 tile of sums goes: the row-major int32 product
// (rows `stride` apart) or, requantized, the NC4HW4 destination (packs
// `stride` floats apart).
type int8Out struct {
	raw    []int32
	f32    []float32
	stride int
	rq     *Requant
}

// run drives the micro-kernel over the panels and four-pixel blocks. A full
// block goes through the assembly epilogues; a tail pixel (as four copies of
// itself, aPix = 0, so the kernel never reads past the run), the clipped
// columns of a raw product's last panel, and everything on the portable path
// come back as an int32 tile and are stored by the Go epilogue.
func (pb *PackedBInt8) run(o *int8Out, a []uint8, aQuad, aPix, pixels int, taps []Tap, kq int, unsigned bool) {
	var acc [4][PanelWidthInt8]int32
	tp, nt := unsafe.SliceData(taps), len(taps)
	for j0 := 0; j0 < pb.N; j0 += PanelWidthInt8 {
		panel := pb.data[j0/PanelWidthInt8*pb.kq*quadWords:]
		lim := min(PanelWidthInt8, pb.N-j0)
		for q := 0; q < pixels; q += 4 {
			rows := min(4, pixels-q)
			switch {
			case !pb.simd:
				mulPanelInt8Go(&acc, a[q*aPix:], aQuad, aPix, rows, taps, kq, panel, unsigned)
				o.store(&acc, j0, lim, q, rows)
			case rows < 4:
				for ; q < pixels; q++ {
					mulPanelInt8(unsafe.Pointer(&acc), PanelWidthInt8, 0, &a[q*aPix], aQuad, 0, tp, nt, kq, &panel[0], nil, nil, 0, 0, unsigned)
					o.store(&acc, j0, lim, q, 1)
				}
			case o.raw == nil:
				rq := o.rq
				mulPanelInt8(unsafe.Pointer(&o.f32[j0/4*o.stride+q*4]), o.stride, (lim+3)/4, &a[q*aPix], aQuad, aPix, tp, nt, kq, &panel[0], &rq.Scale[j0], &rq.Bias[j0], rq.Lo, rq.Hi, unsigned)
			case lim == PanelWidthInt8:
				mulPanelInt8(unsafe.Pointer(&o.raw[q*o.stride+j0]), o.stride, 0, &a[q*aPix], aQuad, aPix, tp, nt, kq, &panel[0], nil, nil, 0, 0, unsigned)
			default:
				mulPanelInt8(unsafe.Pointer(&acc), PanelWidthInt8, 0, &a[q*aPix], aQuad, aPix, tp, nt, kq, &panel[0], nil, nil, 0, 0, unsigned)
				o.store(&acc, j0, lim, q, 4)
			}
		}
	}
}

// store is the epilogue in plain Go: rows `rows` of the tile, columns
// j0..j0+lim, to pixels q… of o. The float32 conversion stops the compiler
// fusing the multiply into the add where the target could, so the roundings
// are the assembly's on every platform.
func (o *int8Out) store(acc *[4][PanelWidthInt8]int32, j0, lim, q, rows int) {
	for r := 0; r < rows; r++ {
		if o.raw != nil {
			copy(o.raw[(q+r)*o.stride+j0:(q+r)*o.stride+j0+lim], acc[r][:])
			continue
		}
		rq := o.rq
		for l := 0; l < (lim+3)/4*4; l++ {
			v := float32(float32(acc[r][l])*rq.Scale[j0+l]) + rq.Bias[j0+l]
			if v < rq.Lo {
				v = rq.Lo
			}
			if v > rq.Hi {
				v = rq.Hi
			}
			o.f32[(j0+l)/4*o.stride+(q+r)*4+l%4] = v
		}
	}
}

// mulPanelInt8Go is mulPanelInt8 up to its epilogue in plain Go, over the
// same packed words: the only path off amd64 or without AVX2, and the
// reference the assembly is tested against. It fills rows r < rows of acc;
// pixel r is aPix bytes after pixel 0.
func mulPanelInt8Go(acc *[4][PanelWidthInt8]int32, a []uint8, aQuad, aPix, rows int, taps []Tap, kq int, panel []int16, unsigned bool) {
	*acc = [4][PanelWidthInt8]int32{}
	for _, t := range taps {
		for q := 0; q < kq; q++ {
			w := (*[quadWords]int16)(panel[(t.B/4+q)*quadWords:])
			for r := 0; r < rows; r++ {
				b := (*[4]uint8)(a[t.A+q*aQuad+r*aPix:])
				x := [4]int32{int32(b[0]), int32(b[1]), int32(b[2]), int32(b[3])}
				if !unsigned {
					x = [4]int32{int32(int8(b[0])), int32(int8(b[1])), int32(int8(b[2])), int32(int8(b[3]))}
				}
				// quadIndex, two columns a step: an even column has rows 0,1 in
				// words 0–31 and rows 2,3 in words 32–63, an odd one the reverse.
				for l, row := 0, &acc[r]; l < PanelWidthInt8; l += 2 {
					row[l] += x[0]*int32(w[l*2]) + x[1]*int32(w[l*2+1]) + x[2]*int32(w[32+l*2]) + x[3]*int32(w[33+l*2])
					row[l+1] += x[2]*int32(w[l*2+2]) + x[3]*int32(w[l*2+3]) + x[0]*int32(w[34+l*2]) + x[1]*int32(w[35+l*2])
				}
			}
		}
	}
}
