package matmul

import "unsafe"

// PanelWidth is the column width of a packed GEMM panel in float32
// elements: 16 floats = 64 bytes = one cache line = two AVX2 registers = one
// AVX-512 register = four NC4HW4 channel packs. The packed right-hand operand
// stores each panel's K rows contiguously, so the micro-kernel streams one
// cache line per reduction step instead of striding across a full row-major
// row.
const PanelWidth = 16

// PackedB is a pre-packed right-hand GEMM operand: the K×N row-major
// matrix rearranged into ceil(N/PanelWidth) panels of layout [K][PanelWidth]
// (zero-padded in the last panel). Weights are packed once at pre-inference
// time (they never change), making every steady-state multiply
// allocation-free and cache-blocked. It is the one fp32 GEMM behind the 1×1,
// im2col and Winograd convolutions, InnerProduct and the transformer weight
// MatMul, on a register-blocked micro-kernel of 4 rows × 16 columns (on
// AVX-512, 12 or 4 rows × two adjacent panels, 32 columns; NC4HW4 also
// 12 × 16 for an unpaired panel): MulBiasInto takes row-major operands and
// ends each element with the bias and clamp of a fully connected layer in
// the same registers, MulInto is its plain product, and MulNC4Into reads and
// writes NC4HW4 activations in place.
type PackedB struct {
	K, N int
	data []float32 // [panels][K][PanelWidth]
	simd level     // the micro-kernels to run (the host's level unless a WithISA view)
}

// level is a rung of a micro-kernel ladder: fp32 portable → avx2 → avx512,
// int8 portable → avx2 → avx512vnni → amx. Every rung computes the same bits —
// the width of the registers and the height of the tile change, the
// sequence of roundings per element does not, and int8 sums are exact — so
// the choice is made from the CPU's features alone and cannot be switched.
type level uint8

const (
	levelPortable level = iota // the Go loops: any host, and the oracle
	levelAVX2                  // 4×16 tiles, two ymm per row
	levelAVX512                // fp32: 12×32 and 4×32 tiles over panel pairs (NC4HW4: 12×16 for a lone panel, pixel remainders on AVX2)
	levelVNNI                  // int8: 12×16 VPDPBUSD tiles; remainders on a 4-pixel variant
	levelAMX                   // int8: 32×32 TDPBUSD/TDPBSSD blocks over two panels; the rest on VNNI
)

var levelNames = [...]string{"portable", "avx2", "avx512", "avx512vnni", "amx"}

// KernelISA names the micro-kernels this host runs: "portable", "avx2" or
// "avx512".
func KernelISA() string { return levelNames[haveSIMD] }

// ISAs lists the levels this host can run, "portable" first, KernelISA last.
func ISAs() []string { return levelNames[:haveSIMD+1] }

// HaveAVX2 reports whether this host runs the AVX2 kernels: the one CPU
// probe of the engine, made at package init, which internal/kernels shares.
func HaveAVX2() bool { return haveSIMD >= levelAVX2 }

// HaveAVX512 reports whether this host runs the AVX-512 fp32 kernels.
func HaveAVX512() bool { return haveSIMD >= levelAVX512 }

// WithISA returns a view of pb that runs the micro-kernels of the named
// level, or nil where the host lacks them. Differential tests hold every
// level the host has to the portable oracle through it.
func (pb *PackedB) WithISA(isa string) *PackedB {
	for l, name := range ISAs() {
		if name == isa {
			q := *pb
			q.simd = level(l)
			return &q
		}
	}
	return nil
}

// Portable returns a view of pb that always runs the portable Go loops —
// the oracle that differential tests compare the assembly kernels with.
func (pb *PackedB) Portable() *PackedB { return pb.WithISA("portable") }

// NewPackedB returns the packed form of the k×n zero matrix, for a caller to
// fill through Rows.
func NewPackedB(k, n int) *PackedB {
	panels := (n + PanelWidth - 1) / PanelWidth
	return &PackedB{K: k, N: n, data: make([]float32, panels*k*PanelWidth), simd: haveSIMD}
}

// Rows returns panel jp from row p on: PanelWidth floats per row, the
// matrix's columns jp·PanelWidth… of rows p, p+1, …, K−1. Columns past N are
// padding and must stay zero.
func (pb *PackedB) Rows(p, jp int) []float32 {
	return pb.data[(jp*pb.K+p)*PanelWidth : (jp+1)*pb.K*PanelWidth]
}

// PackWeight packs the [n][c][taps] weight w — a convolution's
// [oc][ic][kh·kw], or with taps 1 an [out][features] one — as the
// (taps·c)×n matrix whose row t·c + i holds tap t of input channel i: the
// kernels' (tap, channel) reduction order. It is PackB of that matrix, read
// straight from the weight's own layout: each panel line is gathered from
// the weight rows of its columns, so the panels are written once, in order.
func PackWeight(w []float32, n, c, taps int) *PackedB {
	k := taps * c
	if len(w) < n*k {
		panic("matmul: PackWeight buffer too small for declared dimensions")
	}
	pb := NewPackedB(k, n)
	for jp := 0; jp*PanelWidth < n; jp++ {
		cols := min(PanelWidth, n-jp*PanelWidth)
		rows := w[jp*PanelWidth*k : (jp*PanelWidth+cols)*k] // column l is rows[l·k:]
		for p := 0; p < k; p++ {
			line := pb.Rows(p, jp)[:cols]
			s := rows[p%c*taps+p/c:] // tap p/c of input channel p%c
			for l := range line {
				line[l] = s[l*k]
			}
		}
	}
	return pb
}

// PackB packs the row-major k×n matrix b.
func PackB(b []float32, k, n int) *PackedB {
	if len(b) < k*n {
		panic("matmul: PackB buffer too small for declared dimensions")
	}
	pb := NewPackedB(k, n)
	for j0 := 0; j0 < n; j0 += PanelWidth {
		for p := 0; p < k; p++ {
			copy(pb.Rows(p, j0/PanelWidth)[:min(PanelWidth, n-j0)], b[p*n+j0:])
		}
	}
	return pb
}

// MulInto computes dst = a·B for the m×K row-major a, writing the m×N
// row-major product: MulBiasInto with no bias.
func (pb *PackedB) MulInto(dst, a []float32, m int) { pb.MulBiasInto(dst, a, m, nil, 0, 0) }

// MulBiasInto computes dst = a·B for the m×K row-major a, writing the m×N
// row-major product. Every output element is summed in ascending p from +0,
// each step a fused multiply-add rounded once (fma32), exactly as Mul does,
// so the packed and direct kernels produce bitwise-equal results. With bias
// non-nil — N rounded up to whole panels, as MulTapsNC4Into takes it — each
// element then gets its column's bias added, and v < lo becomes lo and v >
// hi becomes hi: MulTapsNC4Into's epilogue, so lo = −Inf, hi = +Inf is the
// bare bias add and lo = 0 a relu. With bias nil the sum is stored as it is
// (a −0 stays −0). A row's bits depend on that row of a alone: not on m, on
// the row's position, or on how a caller splits the rows over lanes — which
// is what keeps batched results equal to unbatched ones.
//
// On amd64 hosts with AVX2 (checked once at package init) the blocks run the
// assembly micro-kernels, the epilogue included — on AVX-512F mulPanel12x32
// and mulPanel4x32 over each pair of panels, mulPanel4x16 on AVX2;
// everywhere else, and as the oracle the differential tests compare them
// with, the portable Go loop runs.
func (pb *PackedB) MulBiasInto(dst, a []float32, m int, bias []float32, lo, hi float32) {
	k, n := pb.K, pb.N
	if len(a) < m*k || len(dst) < m*n || bias != nil && len(bias) < (n+PanelWidth-1)/PanelWidth*PanelWidth {
		panic("matmul: buffer too small for declared dimensions")
	}
	switch {
	case pb.simd == levelPortable || k == 0: // the assembly kernels take at least one step
		pb.mulPortable(dst, a, m, bias, lo, hi)
	case pb.simd == levelAVX2:
		pb.mulAVX2(dst, a, m, bias, lo, hi)
	default:
		pb.mulAVX512(dst, a, m, bias, lo, hi)
	}
}

// mulAVX512 drives the AVX-512 kernels over the pairs of panels, 32 columns
// at a time — the last pair's columns past N masked off, an odd last panel
// read alone — and the rows twelve at a time, then four at a time. When m%4
// rows are left the last block is moved back to end at row m and overlaps
// rows already written: a row's bits depend on that row alone, so they are
// written twice with the same value. A product of fewer than four rows runs
// each row as four copies of itself (lda = ldd = 0), so the kernel never
// reads past a or writes past dst. No step is skipped for a zero a: 0·Inf is
// NaN, and a fused step can leave −0 in an accumulator that a following
// +0·v turns back into +0.
func (pb *PackedB) mulAVX512(dst, a []float32, m int, bias []float32, lo, hi float32) {
	k, n := pb.K, pb.N
	for j0 := 0; j0 < n; j0 += 2 * PanelWidth {
		cols := min(n-j0, 2*PanelWidth)
		panel := &pb.data[j0*k]
		var b *float32 // the pair's biases; the kernels skip the epilogue for nil
		if bias != nil {
			b = &bias[j0]
		}
		i := 0
		for ; i+12 <= m; i += 12 {
			mulPanel12x32(&dst[i*n+j0], n, &a[i*k], k, k, panel, b, lo, hi, cols)
		}
		for ; i < m && m < 4; i++ {
			mulPanel4x32(&dst[i*n+j0], 0, &a[i*k], 0, k, panel, b, lo, hi, cols)
		}
		for ; i < m; i += 4 {
			i = min(i, m-4) // the overlapping tail block
			mulPanel4x32(&dst[i*n+j0], n, &a[i*k], k, k, panel, b, lo, hi, cols)
		}
	}
}

// mulAVX2 is mulAVX512's walk on the 4×16 kernel, one panel at a time.
// Blocks of the zero-padded last panel, and the rows of a product with fewer
// than four, run into a stack tile and copy out what is valid.
func (pb *PackedB) mulAVX2(dst, a []float32, m int, bias []float32, lo, hi float32) {
	k, n := pb.K, pb.N
	var tile [4 * PanelWidth]float32
	for j0 := 0; j0 < n; j0 += PanelWidth {
		lim := min(n-j0, PanelWidth)
		panel := &pb.data[j0*k]
		var b *float32
		if bias != nil {
			b = &bias[j0]
		}
		i := 0
		for ; i < m && m < 4; i++ {
			mulPanel4x16(&tile[0], PanelWidth, &a[i*k], 0, k, panel, b, lo, hi)
			copy(dst[i*n+j0:i*n+j0+lim], tile[:])
		}
		for ; i < m; i += 4 {
			i = min(i, m-4)
			if lim == PanelWidth {
				mulPanel4x16(&dst[i*n+j0], n, &a[i*k], k, k, panel, b, lo, hi)
				continue
			}
			mulPanel4x16(&tile[0], PanelWidth, &a[i*k], k, k, panel, b, lo, hi)
			for r := 0; r < 4; r++ {
				copy(dst[(i+r)*n+j0:(i+r)*n+j0+lim], tile[r*PanelWidth:])
			}
		}
	}
}

// mulPortable is the micro-kernel in plain Go: the only path off amd64 or
// without AVX2, and the reference the assembly is tested against. Four rows
// of a share each streamed panel line (fmaTile), quartering the panel
// traffic — the 4×16 micro-kernel shape NEON GEMMs use, in scalar Go; a tail
// block repeats its last row in the unused ones and stores only the real
// rows, each through finish when there is a bias.
func (pb *PackedB) mulPortable(dst, a []float32, m int, bias []float32, lo, hi float32) {
	k, n := pb.K, pb.N
	var acc [4][PanelWidth]float32
	for j0 := 0; j0 < n; j0 += PanelWidth {
		lim := min(n-j0, PanelWidth)
		panel := pb.data[j0*k : (j0+PanelWidth)*k]
		for i := 0; i < m; i += 4 {
			rows := min(4, m-i)
			a0 := a[i*k:]
			a1, a2, a3 := a0[min(1, rows-1)*k:], a0[min(2, rows-1)*k:], a0[min(3, rows-1)*k:]
			acc = [4][PanelWidth]float32{}
			for p := 0; p < k; p++ {
				fmaTile(&acc, &[4]float32{a0[p], a1[p], a2[p], a3[p]}, (*[PanelWidth]float32)(panel[p*PanelWidth:]))
			}
			for r := 0; r < rows; r++ {
				if bias != nil {
					finish(&acc[r], bias[j0:], lo, hi)
				}
				copy(dst[(i+r)*n+j0:(i+r)*n+j0+lim], acc[r][:])
			}
		}
	}
}

// Tap is one kernel tap of a convolution's reduction: for the first output
// pixel of a run its source pixel starts at a[A] (channel 0), and its weights
// are the panel rows B, B+1, …, one per input channel.
type Tap struct{ A, B int }

// oneTap is a 1×1 convolution's reduction: the pixel itself against rows 0….
var oneTap = []Tap{{}}

// MulNC4Into is MulInto over NC4HW4 activations with bias and activation
// fused — a 1×1 convolution in one pass: MulTapsNC4Into's one-tap case.
func (pb *PackedB) MulNC4Into(dst []float32, dstPack int, a []float32, aPack, aPix, pixels int, bias []float32, lo, hi float32) {
	pb.MulTapsNC4Into(dst, dstPack, a, aPack, aPix, pixels, oneTap, pb.K, bias, lo, hi)
}

// MulTapsNC4Into is the micro-kernel as a convolution over NC4HW4
// activations. It covers `pixels` adjacent output pixels, each the sum over
// a list of kernel taps of kc input channels:
//
//	dst[(o/4)·dstPack + q·4 + o%4] = clamp(Σ_t Σ_c a[t.A + (c/4)·aPack + q·aPix + c%4]·B[t.B+c][o] + bias[o])
//
// for q < pixels and o < N, where aPack and dstPack are the floats between
// channel packs (H·W·4) and aPix the floats between the source pixels of
// adjacent output pixels (4·stride). The caller lists only the taps that fall
// inside the image for every pixel of the run, in ascending (ky, kx) order.
// The sum is MulInto's — taps in list order, c < kc ascending, from +0, one
// rounding per multiply-add — so one tap over kc = K rows is MulInto bit for
// bit; the bias is added after it, then v < lo becomes lo and v > hi becomes
// hi, which is relu, relu6 or the identity bit for bit (NaN stays NaN). A
// pixel's bits depend on that pixel and its tap list alone — which is what
// lets a run be cut into twelve-pixel tiles, four-pixel blocks and a last
// block that overlaps pixels already written. On AVX-512 the twelve-pixel
// tiles of panels 2i and 2i+1 run as one tile of 32 columns (its packs clip a
// partial second panel), an odd last panel on 12 × 16; the pairing reads only
// N. The pad lanes of a's last pack are never read; dst is written in whole
// packs, pad lanes included, and must not alias a. bias holds N rounded up to
// whole panels.
func (pb *PackedB) MulTapsNC4Into(dst []float32, dstPack int, a []float32, aPack, aPix, pixels int, taps []Tap, kc int, bias []float32, lo, hi float32) {
	k, n := pb.K, pb.N
	if pixels <= 0 {
		return
	}
	n4 := (n + 3) / 4
	panels := (n + PanelWidth - 1) / PanelWidth
	reach := (kc+3)/4*aPack - aPack + (pixels-1)*aPix + 4 // floats a tap reads from its A on
	if kc < 1 || len(dst) < (n4-1)*dstPack+pixels*4 || len(bias) < panels*PanelWidth || aPix < 0 || aPack < 0 || dstPack < 0 {
		panic("matmul: buffer too small for declared dimensions")
	}
	for _, t := range taps {
		if t.A < 0 || t.A+reach > len(a) || t.B < 0 || t.B+kc > k {
			panic("matmul: tap outside the source or the packed rows")
		}
	}
	var tile [4 * PanelWidth]float32
	tp, nt := unsafe.SliceData(taps), len(taps)
	for jp := 0; jp < panels; jp++ {
		packs := min(4, n4-jp*4)
		panel := pb.data[jp*k*PanelWidth : (jp+1)*k*PanelWidth]
		b := bias[jp*PanelWidth : (jp+1)*PanelWidth]
		d := dst[jp*4*dstPack:]
		if pb.simd == levelPortable {
			nc4Portable(d, dstPack, packs, a, aPack, aPix, pixels, taps, kc, panel, b, lo, hi)
			continue
		}
		q := 0
		if pb.simd == levelAVX512 {
			switch {
			case jp%2 == 1: // the second of a pair: its tiles ran with the first
				q = pixels / 12 * 12
			case jp+1 < panels: // twelve pixels × this panel and the next, partial or not
				for ; q+12 <= pixels; q += 12 {
					mulPanel12x32NC4(&d[q*4], dstPack, min(8, n4-jp*4), &a[q*aPix], aPack, aPix, tp, nt, kc, &panel[0], k, &b[0], lo, hi)
				}
			default:
				for ; q+12 <= pixels; q += 12 {
					mulPanel12NC4(&d[q*4], dstPack, packs, &a[q*aPix], aPack, aPix, tp, nt, kc, &panel[0], &b[0], lo, hi)
				}
			}
		}
		// Fewer than four pixels in all: each runs as four copies of itself
		// (aPix = 0) into a stack tile, so the kernel never reads or writes
		// past the run.
		for ; q < pixels && pixels < 4; q++ {
			mulPanelNC4(&tile[0], PanelWidth, packs, &a[q*aPix], aPack, 0, tp, nt, kc, &panel[0], &b[0], lo, hi)
			for j := 0; j < packs; j++ {
				copy(d[j*dstPack+q*4:j*dstPack+q*4+4], tile[j*PanelWidth:])
			}
		}
		// Otherwise the last block ends at the run's last pixel and overlaps
		// pixels already written, with the same bits.
		for ; q < pixels; q += 4 {
			q = min(q, pixels-4)
			mulPanelNC4(&d[q*4], dstPack, packs, &a[q*aPix], aPack, aPix, tp, nt, kc, &panel[0], &b[0], lo, hi)
		}
	}
}

// nc4Portable is mulPanelNC4 in plain Go over one panel and a run of
// pixels: the only path off amd64 or without AVX2, and the reference the
// assembly is tested against. A tail block repeats its last pixel in the
// unused rows and stores only the real ones.
func nc4Portable(dst []float32, dstPack, packs int, a []float32, aPack, aPix, pixels int, taps []Tap, kc int, panel, bias []float32, lo, hi float32) {
	var acc [4][PanelWidth]float32
	for q := 0; q < pixels; q += 4 {
		rows := min(4, pixels-q)
		o0 := q * aPix
		o1, o2, o3 := o0+min(1, rows-1)*aPix, o0+min(2, rows-1)*aPix, o0+min(3, rows-1)*aPix
		acc = [4][PanelWidth]float32{}
		for _, t := range taps {
			for p := 0; p < kc; p++ {
				c := t.A + (p/4)*aPack + p%4
				fmaTile(&acc, &[4]float32{a[o0+c], a[o1+c], a[o2+c], a[o3+c]}, (*[PanelWidth]float32)(panel[(t.B+p)*PanelWidth:]))
			}
		}
		for r := 0; r < rows; r++ {
			finish(&acc[r], bias, lo, hi)
			for j := 0; j < packs; j++ {
				copy(dst[j*dstPack+(q+r)*4:j*dstPack+(q+r)*4+4], acc[r][j*4:])
			}
		}
	}
}

// finish is the kernels' epilogue on one tile row in plain Go: each column
// gets its bias added, then v < lo becomes lo and v > hi becomes hi.
func finish(row *[PanelWidth]float32, bias []float32, lo, hi float32) {
	for l, b := range bias[:PanelWidth] {
		v := row[l] + b
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		row[l] = v
	}
}
