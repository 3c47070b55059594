// Package winograd implements MNN's Winograd generator (paper Section 3.3.1):
// given any output tile size n and kernel size k it produces the transform
// matrices A, B, G of F(n×n, k×k) at runtime, instead of hardcoding them for
// a few popular cases the way TF-Lite/NCNN/MACE do.
//
// The construction follows the Toom–Cook derivation. With m = n+k-1
// multiplications, choose m-1 finite interpolation points plus the point at
// infinity. Using Vandermonde evaluation matrices
//
//	Eg (m×k), Ey (m×n), Vm (m×m, last row = infinity row [0,…,0,1]),
//
// the 1-D correlation of an m-long signal d with a k-tap filter g is
//
//	y = Eyᵀ [ (Eg·g) ⊙ (Vm⁻ᵀ·d) ],
//
// so A = Ey, G = Eg and Bᵀ = Vm⁻ᵀ. Following the paper's Equation 8, the
// finite points are 0, ±f, ±2f, … with f = 0.5 chosen to bound numerical
// error.
package winograd

import (
	"fmt"
)

// DefaultF is the point-spacing scalar f from Equation 8 of the paper.
const DefaultF = 0.5

// Matrices holds the three transform matrices of F(n×n, k×k), stored
// row-major in float32 (the compute precision) and float64 (for tests).
type Matrices struct {
	N, K, M int // output tile, kernel, m = n+k-1

	// AT is n×m: output transform (Y = AT · Y' · A).
	// G is m×k: weight transform (W' = G · W · Gᵀ).
	// BT is m×m: input transform (X' = BT · X · B).
	AT, G, BT []float32

	// Float64 copies for error analysis.
	AT64, G64, BT64 []float64
}

// Generate constructs the transform matrices for F(n×n, k×k) with point
// spacing f. n ≥ 1, k ≥ 1 and n+k-1 ≤ 12 (beyond that the Vandermonde system
// is too ill-conditioned to be useful in float32).
func Generate(n, k int, f float64) (*Matrices, error) {
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("winograd: invalid F(%d,%d)", n, k)
	}
	m := n + k - 1
	if m > 12 {
		return nil, fmt.Errorf("winograd: F(%d,%d) needs %d points; numerically unusable", n, k, m)
	}
	pts := points(m-1, f)

	// Ey: m×n evaluation matrix (A), Eg: m×k (G).
	A64 := vandermonde(pts, m, n)
	G64 := vandermonde(pts, m, k)

	// Vm: m×m full Vandermonde; BT = inverse-transpose of Vm.
	Vm := vandermonde(pts, m, m)
	VmInv, err := invert(Vm, m)
	if err != nil {
		return nil, fmt.Errorf("winograd: F(%d,%d): %w", n, k, err)
	}
	BT64 := transpose(VmInv, m, m)

	AT64 := transpose(A64, m, n)

	return &Matrices{
		N: n, K: k, M: m,
		AT: toF32(AT64), G: toF32(G64), BT: toF32(BT64),
		AT64: AT64, G64: G64, BT64: BT64,
	}, nil
}

// points returns count finite interpolation points 0, f, -f, 2f, -2f, …
// per Equation 8 of the paper.
func points(count int, f float64) []float64 {
	pts := make([]float64, 0, count)
	pts = append(pts, 0)
	for i := 1; len(pts) < count; i++ {
		pts = append(pts, float64(i)*f)
		if len(pts) < count {
			pts = append(pts, -float64(i)*f)
		}
	}
	return pts[:count]
}

// vandermonde builds the rows×cols evaluation matrix over pts plus a final
// infinity row [0,…,0,1]. rows must equal len(pts)+1.
func vandermonde(pts []float64, rows, cols int) []float64 {
	if rows != len(pts)+1 {
		panic("winograd: vandermonde row mismatch")
	}
	v := make([]float64, rows*cols)
	for i, p := range pts {
		pow := 1.0
		for j := 0; j < cols; j++ {
			v[i*cols+j] = pow
			pow *= p
		}
	}
	v[(rows-1)*cols+cols-1] = 1 // infinity row
	return v
}

// invert computes the inverse of an n×n matrix by Gauss–Jordan elimination
// with partial pivoting.
func invert(a []float64, n int) ([]float64, error) {
	// Augment [a | I].
	aug := make([]float64, n*2*n)
	for i := 0; i < n; i++ {
		copy(aug[i*2*n:], a[i*n:(i+1)*n])
		aug[i*2*n+n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := abs(aug[col*2*n+col])
		for r := col + 1; r < n; r++ {
			if v := abs(aug[r*2*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("singular Vandermonde (column %d)", col)
		}
		if pivot != col {
			for j := 0; j < 2*n; j++ {
				aug[col*2*n+j], aug[pivot*2*n+j] = aug[pivot*2*n+j], aug[col*2*n+j]
			}
		}
		// Normalize pivot row.
		pv := aug[col*2*n+col]
		for j := 0; j < 2*n; j++ {
			aug[col*2*n+j] /= pv
		}
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := aug[r*2*n+col]
			if factor == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				aug[r*2*n+j] -= factor * aug[col*2*n+j]
			}
		}
	}
	inv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(inv[i*n:(i+1)*n], aug[i*2*n+n:i*2*n+2*n])
	}
	return inv, nil
}

func transpose(a []float64, rows, cols int) []float64 {
	t := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			t[j*rows+i] = a[i*cols+j]
		}
	}
	return t
}

func toF32(a []float64) []float32 {
	out := make([]float32, len(a))
	for i, v := range a {
		out[i] = float32(v)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
