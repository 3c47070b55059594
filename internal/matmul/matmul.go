// Package matmul provides the basic matrix-multiplication unit that MNN
// builds every compute-intensive operator on (paper Section 3.5), including
// the Strassen fast algorithm with the paper's Equation 9 recursion cutoff
// (Section 3.3.2).
//
// Matrices are row-major float32. The strided view type lets Strassen
// recurse into quadrants without copying.
package matmul

// view is a strided sub-matrix over a flat buffer.
type view struct {
	data   []float32
	rows   int
	cols   int
	stride int
}

func (v view) row(i int) []float32 { return v.data[i*v.stride : i*v.stride+v.cols] }

func (v view) sub(r0, c0, rows, cols int) view {
	return view{data: v.data[r0*v.stride+c0:], rows: rows, cols: cols, stride: v.stride}
}

// Mul computes dst = a·b with a direct tiled kernel.
// a is m×k, b is k×n, dst is m×n, all row-major and contiguous.
func Mul(dst, a, b []float32, m, k, n int) {
	checkDims(dst, a, b, m, k, n)
	gemm(view{dst, m, n, n}, view{a, m, k, k}, view{b, k, n, n}, false)
}

func checkDims(dst, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(dst) < m*n {
		panic("matmul: buffer too small for declared dimensions")
	}
}

// gemm is the base kernel: i-p-j loop order so the inner loop streams rows of
// b and dst. Each step is one fma32 — multiply and add rounded once, in
// ascending p from +0 (or from dst when accumulating) — which is what makes
// PackedB.MulInto (portable or assembly) bitwise equal to Mul.
func gemm(dst, a, b view, accumulate bool) {
	m, k := a.rows, a.cols
	if !accumulate {
		for i := 0; i < m; i++ {
			clear(dst.row(i))
		}
	}
	// Block over k to keep the working set of b rows cache-resident.
	const kc = 128
	for p0 := 0; p0 < k; p0 += kc {
		pEnd := min(p0+kc, k)
		for i := 0; i < m; i++ {
			ai := a.row(i)
			di := dst.row(i)
			for p := p0; p < pEnd; p++ {
				av := ai[p]
				for j, v := range b.row(p) {
					di[j] = fma32(av, v, di[j])
				}
			}
		}
	}
}

// ShouldRecurse evaluates the paper's Equation 9: Strassen recursion
// continues only while the multiplications saved exceed the extra matrix
// additions (4 of size [m/2,k/2], 4 of [n/2,k/2] and 7 of [m/2,n/2]):
//
//	m·n·k − 7·(m/2)(n/2)(k/2) > 4·(m/2)(k/2) + 4·(n/2)(k/2) + 7·(m/2)(n/2).
func ShouldRecurse(m, k, n int) bool {
	if m < MinSplitDim || k < MinSplitDim || n < MinSplitDim {
		return false
	}
	mf, kf, nf := float64(m), float64(k), float64(n)
	saved := mf*nf*kf - 7*(mf/2)*(nf/2)*(kf/2)
	extra := 4*(mf/2)*(kf/2) + 4*(nf/2)*(kf/2) + 7*(mf/2)*(nf/2)
	return saved > extra
}

// Stats reports what a MulStrassen call did; used by tests and the ablation
// benchmarks.
type Stats struct {
	Recursions int // number of Strassen splits performed
	BaseCalls  int // number of direct GEMM leaf calls
}

// StrassenScratch returns the float32 count of temporary storage one
// MulStrassenScratch call of the given shape needs: per recursion level the
// 4 S-matrices [m/2,k/2], 4 T-matrices [k/2,n/2] and 9 product/U matrices
// [m/2,n/2], plus whatever the (sequential, scratch-sharing) sub-multiplies
// need one level down. The pre-inference memory planner sizes per-worker
// scratch slabs with this so steady-state GEMMs never touch the allocator.
// The result tracks the current MinSplitDim cutoff.
func StrassenScratch(m, k, n int) int {
	if !ShouldRecurse(m, k, n) {
		return 0
	}
	m2, k2, n2 := m/2, k/2, n/2
	return 4*m2*k2 + 4*k2*n2 + 9*m2*n2 + StrassenScratch(m2, k2, n2)
}

// MulStrassen computes dst = a·b using the Winograd variant of Strassen's
// algorithm (7 multiplications, 15 additions) recursing per Equation 9.
// Odd dimensions are handled by peeling the last row/column strips and
// fixing them up with direct GEMM, so any shape is accepted. Temporaries
// are heap-allocated; prepared kernels use MulStrassenScratch instead.
func MulStrassen(dst, a, b []float32, m, k, n int) Stats {
	return MulStrassenScratch(dst, a, b, m, k, n, make([]float32, StrassenScratch(m, k, n)))
}

// MulStrassenScratch is MulStrassen computing all temporaries inside the
// caller-provided scratch slab (at least StrassenScratch(m, k, n) floats; a
// short slab falls back to allocating the shortfall). Results are bitwise
// identical to MulStrassen: the scratch only changes where the temporaries
// live, not the operation order.
func MulStrassenScratch(dst, a, b []float32, m, k, n int, scratch []float32) Stats {
	checkDims(dst, a, b, m, k, n)
	var st Stats
	strassen(view{dst, m, n, n}, view{a, m, k, k}, view{b, k, n, n}, &st, scratch)
	return st
}

// carve slices an r×c matrix off the front of scratch, falling back to the
// allocator when the slab runs short (e.g. MinSplitDim was lowered between
// planning and running).
func carve(scratch []float32, r, c int) (view, []float32) {
	sz := r * c
	if len(scratch) < sz {
		return view{make([]float32, sz), r, c, c}, scratch
	}
	return view{scratch[:sz], r, c, c}, scratch[sz:]
}

func strassen(dst, a, b view, st *Stats, scratch []float32) {
	m, k, n := a.rows, a.cols, b.cols
	if !ShouldRecurse(m, k, n) {
		st.BaseCalls++
		gemm(dst, a, b, false)
		return
	}
	st.Recursions++

	m2, k2, n2 := m/2, k/2, n/2

	a11 := a.sub(0, 0, m2, k2)
	a12 := a.sub(0, k2, m2, k2)
	a21 := a.sub(m2, 0, m2, k2)
	a22 := a.sub(m2, k2, m2, k2)
	b11 := b.sub(0, 0, k2, n2)
	b12 := b.sub(0, n2, k2, n2)
	b21 := b.sub(k2, 0, k2, n2)
	b22 := b.sub(k2, n2, k2, n2)
	c11 := dst.sub(0, 0, m2, n2)
	c12 := dst.sub(0, n2, m2, n2)
	c21 := dst.sub(m2, 0, m2, n2)
	c22 := dst.sub(m2, n2, m2, n2)

	// Winograd's variant: 4 S-additions on [m/2,k/2], 4 T-additions on
	// [k/2,n/2], 7 U-additions on [m/2,n/2] — the exact counts in Eq. 9.
	// All temporaries carve sequentially off the scratch slab; the seven
	// sub-multiplies run one after another and share the remainder.
	s1, scratch := carve(scratch, m2, k2)
	s2, scratch := carve(scratch, m2, k2)
	s3, scratch := carve(scratch, m2, k2)
	s4, scratch := carve(scratch, m2, k2)
	addInto(s1, a21, a22) // S1 = A21 + A22
	subInto(s2, s1, a11)  // S2 = S1 - A11
	subInto(s3, a11, a21) // S3 = A11 - A21
	subInto(s4, a12, s2)  // S4 = A12 - S2

	t1, scratch := carve(scratch, k2, n2)
	t2, scratch := carve(scratch, k2, n2)
	t3, scratch := carve(scratch, k2, n2)
	t4, scratch := carve(scratch, k2, n2)
	subInto(t1, b12, b11) // T1 = B12 - B11
	subInto(t2, b22, t1)  // T2 = B22 - T1
	subInto(t3, b22, b12) // T3 = B22 - B12
	subInto(t4, t2, b21)  // T4 = T2 - B21

	m1, scratch := carve(scratch, m2, n2)
	m2m, scratch := carve(scratch, m2, n2)
	m3, scratch := carve(scratch, m2, n2)
	m4, scratch := carve(scratch, m2, n2)
	m5, scratch := carve(scratch, m2, n2)
	m6, scratch := carve(scratch, m2, n2)
	m7, scratch := carve(scratch, m2, n2)
	strassen(m1, a11, b11, st, scratch)  // M1 = A11·B11
	strassen(m2m, a12, b21, st, scratch) // M2 = A12·B21
	strassen(m3, s4, b22, st, scratch)   // M3 = S4·B22
	strassen(m4, a22, t4, st, scratch)   // M4 = A22·T4
	strassen(m5, s1, t1, st, scratch)    // M5 = S1·T1
	strassen(m6, s2, t2, st, scratch)    // M6 = S2·T2
	strassen(m7, s3, t3, st, scratch)    // M7 = S3·T3

	// U-phase (7 additions on [m/2,n/2]):
	addInto(c11, m1, m2m) // C11 = M1 + M2
	u2, scratch := carve(scratch, m2, n2)
	addInto(u2, m1, m6) // U2 = M1 + M6
	u3, _ := carve(scratch, m2, n2)
	addInto(u3, u2, m7)  // U3 = U2 + M7
	addInto(u2, u2, m5)  // U4 = U2 + M5 (reuse u2)
	addInto(c12, u2, m3) // C12 = U4 + M3
	subInto(c21, u3, m4) // C21 = U3 - M4
	addInto(c22, u3, m5) // C22 = U3 + M5

	// Peel fixups for odd dimensions.
	if k%2 == 1 {
		// Contribution of the last column of a × last row of b to the even core.
		aCol := a.sub(0, k-1, 2*m2, 1)
		bRow := b.sub(k-1, 0, 1, 2*n2)
		gemm(dst.sub(0, 0, 2*m2, 2*n2), aCol, bRow, true)
	}
	if m%2 == 1 {
		// Last row of dst = last row of a × all of b.
		gemm(dst.sub(m-1, 0, 1, n), a.sub(m-1, 0, 1, k), b, false)
	}
	if n%2 == 1 {
		// Last column of dst (excluding the corner already done above).
		rows := m
		if m%2 == 1 {
			rows = m - 1
		}
		if rows > 0 {
			gemm(dst.sub(0, n-1, rows, 1), a.sub(0, 0, rows, k), b.sub(0, n-1, k, 1), false)
		}
	}
}

func addInto(dst, x, y view) {
	for i := 0; i < dst.rows; i++ {
		d, xr, yr := dst.row(i), x.row(i), y.row(i)
		for j := range d {
			d[j] = xr[j] + yr[j]
		}
	}
}

func subInto(dst, x, y view) {
	for i := 0; i < dst.rows; i++ {
		d, xr, yr := dst.row(i), x.row(i), y.row(i)
		for j := range d {
			d[j] = xr[j] - yr[j]
		}
	}
}

// DirectMULs returns the multiplication count of a direct m×k×n GEMM, the
// MUL term used by the cost model.
func DirectMULs(m, k, n int) int64 { return int64(m) * int64(k) * int64(n) }

// StrassenMULs estimates the multiplication count of MulStrassen by walking
// the same recursion tree as the implementation.
func StrassenMULs(m, k, n int) int64 {
	if !ShouldRecurse(m, k, n) {
		return DirectMULs(m, k, n)
	}
	muls := 7 * StrassenMULs(m/2, k/2, n/2)
	if k%2 == 1 {
		muls += DirectMULs(2*(m/2), 1, 2*(n/2))
	}
	if m%2 == 1 {
		muls += DirectMULs(1, k, n)
	}
	if n%2 == 1 {
		rows := m
		if m%2 == 1 {
			rows = m - 1
		}
		muls += DirectMULs(rows, k, 1)
	}
	return muls
}
