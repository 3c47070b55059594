package matmul

// PanelWidth is the column width of a packed GEMM panel in float32
// elements: 16 floats = 64 bytes = one cache line = two AVX2 registers =
// four NC4HW4 channel packs. The packed right-hand operand stores each
// panel's K rows contiguously, so the micro-kernel streams one cache line
// per reduction step instead of striding across a full row-major row.
const PanelWidth = 16

// PackedB is a pre-packed right-hand GEMM operand: the K×N row-major
// matrix rearranged into ceil(N/PanelWidth) panels of layout [K][PanelWidth]
// (zero-padded in the last panel). Weights are packed once at pre-inference
// time (they never change), making every steady-state multiply
// allocation-free and cache-blocked. It is the one fp32 GEMM behind the 1×1,
// im2col and Winograd convolutions, InnerProduct and the transformer weight
// MatMul; MulInto runs it on a 4×16 register-blocked micro-kernel.
type PackedB struct {
	K, N int
	data []float32 // [panels][K][PanelWidth]
	raw  []float32 // the original row-major matrix, for the tiny-K fallback
}

// PackB packs the row-major k×n matrix b.
func PackB(b []float32, k, n int) *PackedB {
	if len(b) < k*n {
		panic("matmul: PackB buffer too small for declared dimensions")
	}
	panels := (n + PanelWidth - 1) / PanelWidth
	pb := &PackedB{K: k, N: n, data: make([]float32, panels*k*PanelWidth), raw: b[:k*n]}
	for jp := 0; jp < panels; jp++ {
		j0 := jp * PanelWidth
		lim := n - j0
		if lim > PanelWidth {
			lim = PanelWidth
		}
		for p := 0; p < k; p++ {
			dst := pb.data[(jp*k+p)*PanelWidth:]
			src := b[p*n+j0:]
			for l := 0; l < lim; l++ {
				dst[l] = src[l]
			}
		}
	}
	return pb
}

// MulInto computes dst = a·B for the m×K row-major a, writing the m×N
// row-major product. Every output element is summed in ascending p from +0
// with a separately rounded multiply and add, exactly as Mul does, so the
// packed and direct kernels produce bitwise-equal results — prepared kernels
// may pick either per chunk without breaking the batched≡unbatched serving
// guarantee. A row's bits depend on that row of a alone: not on m, on the
// row's position, or on how a caller splits the rows over lanes.
//
// On amd64 hosts with AVX2 (checked once at package init) the 4×16 blocks
// run the assembly micro-kernel mulPanel4x16; everywhere else, and as the
// oracle the differential tests compare it with, the portable Go loop runs.
func (pb *PackedB) MulInto(dst, a []float32, m int) { pb.mulInto(dst, a, m, haveSIMD) }

func (pb *PackedB) mulInto(dst, a []float32, m int, simd bool) {
	k, n := pb.K, pb.N
	if len(a) < m*k || len(dst) < m*n {
		panic("matmul: buffer too small for declared dimensions")
	}
	switch {
	case k < PanelWidth:
		// A depth this shallow cannot amortize the micro-kernel's
		// accumulator setup (e.g. Winograd positions of an ic=3 stem
		// layer); the direct kernel is faster and bitwise-identical.
		Mul(dst, a, pb.raw, m, k, n)
	case simd:
		pb.mulSIMD(dst, a, m)
	default:
		pb.mulPortable(dst, a, m)
	}
}

// mulSIMD drives mulPanel4x16 over the panels and four-row blocks. A block
// that is not a full 4×16 — the m%4 tail rows, the zero-padded last panel —
// runs the same kernel into a stack tile and copies out what is valid; a
// tail row is fed as four copies of itself (lda = 0) so the kernel never
// reads past a. There is no zero-skip here: adding av·v = ±0 to an
// accumulator that started at +0 never changes it, so skipping is
// value-preserving for finite weights and the branch only costs.
func (pb *PackedB) mulSIMD(dst, a []float32, m int) {
	k, n := pb.K, pb.N
	var tile [4 * PanelWidth]float32
	for j0 := 0; j0 < n; j0 += PanelWidth {
		lim := min(n-j0, PanelWidth)
		panel := &pb.data[j0*k]
		i := 0
		for ; i+4 <= m; i += 4 {
			if lim == PanelWidth {
				mulPanel4x16(&dst[i*n+j0], n, &a[i*k], k, k, panel)
				continue
			}
			mulPanel4x16(&tile[0], PanelWidth, &a[i*k], k, k, panel)
			for r := 0; r < 4; r++ {
				copy(dst[(i+r)*n+j0:(i+r)*n+j0+lim], tile[r*PanelWidth:])
			}
		}
		for ; i < m; i++ {
			mulPanel4x16(&tile[0], PanelWidth, &a[i*k], 0, k, panel)
			copy(dst[i*n+j0:i*n+j0+lim], tile[:])
		}
	}
}

// mulPortable is the micro-kernel in plain Go: the only path off amd64 or
// without AVX2, and the reference the assembly is tested against.
func (pb *PackedB) mulPortable(dst, a []float32, m int) {
	k, n := pb.K, pb.N
	panels := (n + PanelWidth - 1) / PanelWidth
	// Register blocking: four rows of a share each streamed panel line,
	// quartering the panel traffic — the 4×16 micro-kernel shape NEON GEMMs
	// use, in scalar Go. The float32 conversions stop the compiler fusing
	// multiply and add where the target could, so the roundings are those of
	// Mul and of mulPanel4x16 on every platform.
	var acc0, acc1, acc2, acc3 [PanelWidth]float32
	for jp := 0; jp < panels; jp++ {
		j0 := jp * PanelWidth
		lim := n - j0
		if lim > PanelWidth {
			lim = PanelWidth
		}
		panel := pb.data[jp*k*PanelWidth : (jp+1)*k*PanelWidth]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			a2 := a[(i+2)*k : (i+3)*k]
			a3 := a[(i+3)*k : (i+4)*k]
			for l := range acc0 {
				acc0[l] = 0
				acc1[l] = 0
				acc2[l] = 0
				acc3[l] = 0
			}
			for p := 0; p < k; p++ {
				av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
				// Post-ReLU activations are sparse and spatially
				// correlated: the four adjacent pixels of this row block
				// are often zero together, so the skip fires for real.
				if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
					continue
				}
				bp := panel[p*PanelWidth : p*PanelWidth+PanelWidth]
				for l := 0; l < PanelWidth; l++ {
					v := bp[l]
					acc0[l] += float32(av0 * v)
					acc1[l] += float32(av1 * v)
					acc2[l] += float32(av2 * v)
					acc3[l] += float32(av3 * v)
				}
			}
			d0 := dst[i*n+j0:]
			d1 := dst[(i+1)*n+j0:]
			d2 := dst[(i+2)*n+j0:]
			d3 := dst[(i+3)*n+j0:]
			for l := 0; l < lim; l++ {
				d0[l] = acc0[l]
				d1[l] = acc1[l]
				d2[l] = acc2[l]
				d3[l] = acc3[l]
			}
		}
		for ; i < m; i++ {
			ai := a[i*k : (i+1)*k]
			for l := range acc0 {
				acc0[l] = 0
			}
			for p, av := range ai {
				if av == 0 {
					continue
				}
				bp := panel[p*PanelWidth : p*PanelWidth+PanelWidth]
				for l := 0; l < PanelWidth; l++ {
					acc0[l] += float32(av * bp[l])
				}
			}
			di := dst[i*n+j0:]
			for l := 0; l < lim; l++ {
				di[l] = acc0[l]
			}
		}
	}
}
