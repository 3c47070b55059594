package matmul

import "unsafe"

// Int8 GEMM for the quantized inference path (paper Section 3.1): byte
// operands, int32 accumulation, one micro-kernel at four levels picked from
// CPUID (and, for AMX, the OS's grant of the tile state), as the fp32 ones
// are:
//
//   - amx: blocks of 32 pixels × 32 columns in the four C tiles, two
//     adjacent panels at once (amx.go): per 64-byte chunk of a pixel's
//     bytes one TDPBUSD (unsigned activations) or TDPBSSD (signed) per C
//     tile, 16×64×16 multiply-adds an instruction. It runs the stride-1
//     convolutions over a zero-bordered pixel-major image (MulGridNC4Into)
//     and MulRows over whole 64-byte rows; everything else runs the VNNI
//     kernels over the same pack.
//   - avx512vnni: 12 pixels × 16 columns in zmm accumulators. Per channel
//     quad one 64-byte weight load and one VPDPBUSD per pixel, which
//     multiplies the pixel's four bytes, broadcast to every column, by the
//     column's four weight bytes and adds the four products to the column's
//     int32 — 64 multiply-adds an instruction. VPDPBUSD reads its left
//     operand unsigned: a signed activation v is loaded as v XOR 0x80 =
//     v+128, and 128·Σw, one more VPDPBUSD per quad shared by the tile, is
//     subtracted before the epilogue. Runs shorter than a tile use a
//     4-pixel variant.
//   - avx2: 4 × 16 tiles. Per quad the pixel's four bytes are broadcast,
//     widened to int16 (sign- or zero-extended) and multiplied against int16
//     weights with VPMADDWD, which sums adjacent products into int32 lanes;
//     VPADDD accumulates. Eleven instructions per pixel and quad, about the
//     fp32 AVX2 kernel's count for the same multiply-adds.
//   - portable: the Go twin, over either weight layout, and the oracle.
//
// No instruction saturates — a VPMADDWD pair sum is at most 2·255·128, and
// VPDPBUSD (unlike VPDPBUSDS) wraps — and int32 addition wraps exactly like
// Go's, so the signed correction cancels exactly and every level equals
// MulInt8Ref bit for bit on every byte input, at any depth, under any split
// of the rows. (VPMADDUBSW would halve the AVX2 work but saturates its int16
// pair sums; it is not used.)
//
// Weights are packed once, in the layout of the host's level: int8 dwords
// on VNNI and AMX hosts, int16 elsewhere. Widening bytes in the AVX2 kernel
// instead (a VPMOVSXBW per weight vector) ran the 169×512×1000 GEMM 14 %
// slower (1.99 vs 1.74 ms, minima of four alternating runs).

// PanelWidthInt8 is the column width of a packed int8 panel: 16 int32
// accumulators = one zmm = two ymm = four NC4HW4 channel packs.
const PanelWidthInt8 = 16

// quadLen is the weight count of one channel quad of a panel, 4 rows × 16
// columns, in either layout.
const quadLen = 4 * PanelWidthInt8

// PackedBInt8 is a pre-packed right-hand int8 GEMM operand: the K×N
// row-major matrix rearranged into ceil(N/PanelWidthInt8) panels of
// ceil(K/4) channel quads, zero-padded on both axes, each quad in the order
// its kernel reads (quadIndex). Quantized weights are packed once at
// pre-inference time, so steady-state multiplies are allocation-free.
//
// The rows come in segments of seg rows — a convolution weight's kernel
// rows, kw·cp each; the whole matrix otherwise. At amx each segment is
// zero-padded to whole 64-row chunks, the K of one tile instruction, and
// the panels to an even count, the pair a block covers; a zero row adds an
// exact 0, so the VNNI kernels run over that layout too.
type PackedBInt8 struct {
	K, N    int
	kq      int     // quads per panel: the packed rows in quads, rounded up
	seg     int     // rows per segment
	segRows int     // packed rows per segment: seg, or at amx seg rounded up to whole chunks
	w16     []int16 // [panels][kq][quadLen] for the avx2 kernel; nil at avx512vnni and amx
	w8      []int8  // [panels][kq][quadLen] for the avx512vnni and amx kernels; nil otherwise
	simd    level   // the kernels to run: levelPortable, levelAVX2, levelVNNI or levelAMX
}

// int8Ladder is the int8 kernels' ladder, lowest first.
var int8Ladder = [...]level{levelPortable, levelAVX2, levelVNNI, levelAMX}

// quadIndex is where row c < 4, column l < 16 of a quad lives.
//
// VNNI: column l's four rows are dword l, the bytes VPDPBUSD multiplies a
// broadcast pixel quad with.
//
// AVX2: the kernel holds a pixel's widened bytes as V = (b0,b1),(b2,b3),
// (b0,b1),… down the int32 lanes and V′, the same with the pairs swapped.
// Words 0–31 multiply V: lane l carries rows 0,1 of column l when l is even,
// rows 2,3 when odd. Words 32–63 multiply V′ and carry the other pair, so the
// two products sum to all four rows of column l in lane l.
func quadIndex(vnni bool, c, l int) int {
	if vnni {
		return l*4 + c
	}
	return (c>>1^l&1)*2*PanelWidthInt8 + l*2 + c&1
}

// row is the packed row of row p of the matrix.
func (pb *PackedBInt8) row(p int) int { return p/pb.seg*pb.segRows + p%pb.seg }

// index is where row p, column j of the matrix lives in pb's layout.
func (pb *PackedBInt8) index(p, j int) int {
	r := pb.row(p)
	return (j/PanelWidthInt8*pb.kq+r/4)*quadLen + quadIndex(pb.w8 != nil, r%4, j%PanelWidthInt8)
}

// KyRows is the packed rows between two segments' starts: the row a tap of
// kernel row ky, column kx starts at is ky·KyRows + kx·cp.
func (pb *PackedBInt8) KyRows() int { return pb.segRows }

// at is the weight at index i of either layout.
func (pb *PackedBInt8) at(i int) int32 {
	if pb.w8 != nil {
		return int32(pb.w8[i])
	}
	return int32(pb.w16[i])
}

func (pb *PackedBInt8) set(i int, v int8) {
	if pb.w8 != nil {
		pb.w8[i] = v
	} else {
		pb.w16[i] = int16(v)
	}
}

// newPackedBInt8 returns the packed form of the k×n zero matrix, in
// segments of seg rows (k a multiple of seg), for the kernels of level lv.
func newPackedBInt8(k, n, seg int, lv level) *PackedBInt8 {
	panels := (n + PanelWidthInt8 - 1) / PanelWidthInt8
	seg = max(seg, 1)
	pb := &PackedBInt8{K: k, N: n, seg: seg, segRows: seg, simd: lv}
	if lv == levelAMX {
		pb.segRows = (seg + amxChunk - 1) / amxChunk * amxChunk
		panels += panels & 1
	}
	pb.kq = (k/seg*pb.segRows + 3) / 4
	if lv >= levelVNNI {
		pb.w8 = make([]int8, panels*pb.kq*quadLen)
	} else {
		pb.w16 = make([]int16, panels*pb.kq*quadLen)
	}
	return pb
}

// PackBInt8 packs the row-major k×n int8 matrix b.
func PackBInt8(b []int8, k, n int) *PackedBInt8 { return PackBInt8Segments(b, k, n, k) }

// PackBInt8Segments is PackBInt8 for a matrix whose rows come in segments
// of seg rows, k a multiple of seg — a convolution weight's kernel rows, as
// PackWeightInt8 packs them.
func PackBInt8Segments(b []int8, k, n, seg int) *PackedBInt8 {
	if len(b) < k*n {
		panic("matmul: PackBInt8 buffer too small for declared dimensions")
	}
	if k > 0 && (seg < 1 || k%seg != 0) {
		panic("matmul: PackBInt8Segments rows are not whole segments")
	}
	pb := newPackedBInt8(k, n, seg, haveInt8)
	for p := 0; p < k; p++ {
		for j, v := range b[p*n : (p+1)*n] {
			pb.set(pb.index(p, j), v)
		}
	}
	return pb
}

// PackWeightInt8 is PackWeight for a kh×kw int8 weight whose taps start at
// whole channel packs: row t·cp + i of the (kh·kw·cp)×n matrix holds tap t
// of input channel i < c, and rows c ≤ i < cp of each tap are zero. Each
// kernel row, kw·cp rows, is one segment.
func PackWeightInt8(w []int8, n, c, kh, kw, cp int) *PackedBInt8 {
	taps := kh * kw
	if len(w) < n*c*taps || cp < c {
		panic("matmul: PackWeightInt8 buffer too small for declared dimensions")
	}
	pb := newPackedBInt8(taps*cp, n, kw*cp, haveInt8)
	vnni := pb.w8 != nil
	for j0 := 0; j0 < n; j0 += PanelWidthInt8 {
		for p := 0; p < pb.K; p++ {
			t, i := p/cp, p%cp
			if i >= c {
				continue
			}
			r := pb.row(p)
			quad := (j0/PanelWidthInt8*pb.kq + r/4) * quadLen
			for l := range min(PanelWidthInt8, n-j0) {
				pb.set(quad+quadIndex(vnni, r%4, l), w[((j0+l)*c+i)*taps+t])
			}
		}
	}
	return pb
}

// Int8ISA names the int8 micro-kernels this host runs: "portable", "avx2",
// "avx512vnni" or "amx".
func Int8ISA() string { return levelNames[haveInt8] }

// Int8ISAs lists the int8 levels this host can run, "portable" first,
// Int8ISA last.
func Int8ISAs() []string {
	var isas []string
	for _, lv := range int8Ladder {
		if lv <= haveInt8 {
			isas = append(isas, levelNames[lv])
		}
	}
	return isas
}

// WithISA returns pb packed for the int8 micro-kernels of the named level,
// or nil where the host lacks them. The avx2, avx512vnni and amx kernels
// read different layouts, so theirs is a copy; "portable" is Portable's
// view, as the Go twin reads any. Differential tests hold every level the
// host has to MulInt8Ref through it.
func (pb *PackedBInt8) WithISA(isa string) *PackedBInt8 {
	for _, lv := range int8Ladder {
		if lv > haveInt8 || levelNames[lv] != isa {
			continue
		}
		if lv == levelPortable {
			return pb.Portable()
		}
		q := newPackedBInt8(pb.K, pb.N, pb.seg, lv)
		for p := 0; p < pb.K; p++ {
			for j := 0; j < pb.N; j++ {
				q.set(q.index(p, j), int8(pb.at(pb.index(p, j))))
			}
		}
		return q
	}
	return nil
}

// Portable returns a view of pb that always runs the plain-Go twin of the
// micro-kernels — the oracle that differential tests compare the assembly
// with.
func (pb *PackedBInt8) Portable() *PackedBInt8 {
	q := *pb
	q.simd = levelPortable
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

// Int8GemmScratch is the scratch length MulInto needs: none.
// It and their last parameter remain for callers written against the
// kernel that needed a row-sum buffer.
func Int8GemmScratch(m int) int { return 0 }

// MulInto computes dst = a·B for the m×K row-major int8 a, writing the m×N
// row-major int32 product, bitwise MulInt8Ref's for every input.
func (pb *PackedBInt8) MulInto(dst []int32, a []int8, m int, _ []int32) {
	pb.MulRows(dst, unsafe.Slice((*uint8)(unsafe.Pointer(unsafe.SliceData(a))), len(a)), m, false)
}

// MulRows is MulInto over bytes, read as int8 unless unsigned (0..255, the
// case of every post-ReLU activation tensor):
// the micro-kernel over a row-major left operand, where a row is a pixel K
// bytes after the last, its quads 4 bytes apart. The K%4 bytes that end a
// row are no whole quad (reading one would run past the last row); their
// products are added here, from the same packed weights. At amx, AMXBlock
// rows or more of whole 64-byte chunks run on the tiles over every whole
// panel pair (amx.go), and the VNNI kernels take the columns left.
func (pb *PackedBInt8) MulRows(dst []int32, a []uint8, m int, unsigned bool) {
	k, n := pb.K, pb.N
	if len(a) < m*k || len(dst) < m*n {
		panic("matmul: buffer too small for declared dimensions")
	}
	if pb.seg < k && pb.segRows != pb.seg {
		panic("matmul: MulRows over a convolution weight packed at amx, whose kernel rows are padded apart")
	}
	r := &int8Run{a: a, aQuad: 4, aPix: k, taps: oneTap, kq: k / 4, unsigned: unsigned, raw: dst, stride: n}
	switch {
	case k < 4:
		clear(dst[:m*n])
	case pb.simd == levelAMX && m >= AMXBlock && k%amxChunk == 0:
		pb.mulRowsAMX(dst, a, m, unsigned)
		pb.run(r, m, n/(2*PanelWidthInt8)*2*PanelWidthInt8)
	default:
		pb.run(r, m, 0)
	}
	for p := k &^ 3; p < k; p++ {
		for i := 0; i < m; i++ {
			av := int32(a[i*k+p])
			if !unsigned {
				av = int32(int8(av))
			}
			for j := range dst[i*n : (i+1)*n] {
				dst[i*n+j] += av * pb.at(pb.index(p, j))
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
	pb.run(&int8Run{a: a, aQuad: aPack, aPix: aPix, taps: taps, kq: kq, unsigned: unsigned, f32: dst, stride: dstPack, rq: rq}, pixels, 0)
}

// int8Run is one product: the left operand and its tap walk, and where the
// tiles go — the row-major int32 product (rows `stride` apart) or,
// requantized, the NC4HW4 destination (packs `stride` floats apart).
type int8Run struct {
	a           []uint8
	aQuad, aPix int
	taps        []Tap
	kq          int
	unsigned    bool

	raw    []int32
	f32    []float32
	stride int
	rq     *Requant

	acc [12][PanelWidthInt8]int32 // the stack tile
}

// run drives the micro-kernels over the panels from column j0 on and the
// tiles of pixels: at avx512vnni and amx twelve at a time, and a remainder of more than eight as one
// more twelve-pixel tile that ends at the last pixel; then four at a time,
// the last block again ending at the last pixel. An overlapped pixel is
// written twice with the same bits: its sums are exact and depend on that
// pixel alone. Fewer than four pixels in all run one at a time as four
// copies of themselves (aPix = 0), so no kernel reads past the run.
func (pb *PackedBInt8) run(r *int8Run, pixels, j0 int) {
	for ; j0 < pb.N; j0 += PanelWidthInt8 {
		panel := j0 / PanelWidthInt8 * pb.kq * quadLen
		if pb.simd == levelPortable {
			for q := 0; q < pixels; q += 4 {
				rows := min(4, pixels-q)
				pb.mulPanelGo(r.acc[:rows], panel, r, q)
				r.store(r.acc[:rows], j0, min(PanelWidthInt8, pb.N-j0), q)
			}
			continue
		}
		q := 0
		if pb.simd >= levelVNNI && pixels >= 12 {
			for ; q+12 <= pixels; q += 12 {
				pb.tile(r, 12, q, r.aPix, panel, j0)
			}
			if pixels-q > 8 {
				pb.tile(r, 12, pixels-12, r.aPix, panel, j0)
				q = pixels
			}
		}
		for ; q < pixels && pixels < 4; q++ {
			pb.tile(r, 1, q, 0, panel, j0)
		}
		for ; q < pixels; q += 4 {
			q = min(q, pixels-4)
			pb.tile(r, 4, q, r.aPix, panel, j0)
		}
	}
}

// tile runs one kernel call — twelve pixels, four, or with rows 1 four
// copies of pixel q — against the panel whose weights start at index panel
// (columns j0…), for pixels q…. A requantized tile, and a raw one of a whole
// panel, is stored by the kernel; a raw one of the clipped last panel and a
// single pixel come back through the stack tile and the Go epilogue.
func (pb *PackedBInt8) tile(r *int8Run, rows, q, aPix, panel, j0 int) {
	lim := min(PanelWidthInt8, pb.N-j0)
	viaTile := rows == 1 || r.raw != nil && lim < PanelWidthInt8
	dst, stride, packs := unsafe.Pointer(&r.acc), PanelWidthInt8, 0
	var scale, bias *float32
	var lo, hi float32
	switch {
	case viaTile:
	case r.raw != nil:
		dst, stride = unsafe.Pointer(&r.raw[q*r.stride+j0]), r.stride
	default:
		dst, stride, packs = unsafe.Pointer(&r.f32[j0/4*r.stride+q*4]), r.stride, (lim+3)/4
		scale, bias, lo, hi = &r.rq.Scale[j0], &r.rq.Bias[j0], r.rq.Lo, r.rq.Hi
	}
	a, tp, nt := &r.a[q*r.aPix], unsafe.SliceData(r.taps), len(r.taps)
	switch {
	case pb.simd == levelAVX2:
		mulPanelInt8(dst, stride, packs, a, r.aQuad, aPix, tp, nt, r.kq, &pb.w16[panel], scale, bias, lo, hi, r.unsigned)
	case rows == 12:
		mulPanel12Int8(dst, stride, packs, a, r.aQuad, aPix, tp, nt, r.kq, &pb.w8[panel], scale, bias, lo, hi, r.unsigned)
	default:
		mulPanel4Int8(dst, stride, packs, a, r.aQuad, aPix, tp, nt, r.kq, &pb.w8[panel], scale, bias, lo, hi, r.unsigned)
	}
	if viaTile {
		r.store(r.acc[:rows], j0, lim, q)
	}
}

// store is the epilogue in plain Go: the tile's rows as pixels q… of r,
// columns j0…j0+lim. The float32 conversion stops the compiler fusing the
// multiply into the add where the target could, so the roundings are the
// assembly's on every platform.
func (r *int8Run) store(tile [][PanelWidthInt8]int32, j0, lim, q int) {
	for i := range tile {
		if r.raw != nil {
			copy(r.raw[(q+i)*r.stride+j0:(q+i)*r.stride+j0+lim], tile[i][:])
			continue
		}
		rq := r.rq
		for l := 0; l < (lim+3)/4*4; l++ {
			v := float32(float32(tile[i][l])*rq.Scale[j0+l]) + rq.Bias[j0+l]
			if v < rq.Lo {
				v = rq.Lo
			}
			if v > rq.Hi {
				v = rq.Hi
			}
			r.f32[(j0+l)/4*r.stride+(q+i)*4+l%4] = v
		}
	}
}

// mulPanelGo is the micro-kernels up to their epilogue in plain Go, over
// either layout: the only path off amd64 or without AVX2, and the reference
// the assembly is tested against. It fills the tile's rows with the sums of
// pixels q, q+1, … against the panel whose weights start at index panel.
func (pb *PackedBInt8) mulPanelGo(tile [][PanelWidthInt8]int32, panel int, r *int8Run, q int) {
	clear(tile)
	var w [4][PanelWidthInt8]int32
	for _, t := range r.taps {
		for k := 0; k < r.kq; k++ {
			at := panel + (t.B/4+k)*quadLen
			if pb.w8 != nil {
				unpackQuad(&w, pb.w8[at:at+quadLen], true)
			} else {
				unpackQuad(&w, pb.w16[at:at+quadLen], false)
			}
			for i := range tile {
				b := (*[4]uint8)(r.a[t.A+k*r.aQuad+(q+i)*r.aPix:])
				x := [4]int32{int32(b[0]), int32(b[1]), int32(b[2]), int32(b[3])}
				if !r.unsigned {
					x = [4]int32{int32(int8(b[0])), int32(int8(b[1])), int32(int8(b[2])), int32(int8(b[3]))}
				}
				row := &tile[i]
				for l := range row {
					row[l] += x[0]*w[0][l] + x[1]*w[1][l] + x[2]*w[2][l] + x[3]*w[3][l]
				}
			}
		}
	}
}

// unpackQuad reads one packed quad into w[row][column].
func unpackQuad[T int8 | int16](w *[4][PanelWidthInt8]int32, quad []T, vnni bool) {
	for c := range w {
		for l := range w[c] {
			w[c][l] = int32(quad[quadIndex(vnni, c, l)])
		}
	}
}
