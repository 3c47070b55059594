package matmul

import "math"

// fma32 returns a·b + c rounded once to float32, to nearest with ties to
// even: what VFMADD231PS and NEON's fmla compute, and the one rounding per
// step of every PackedB kernel and of Mul. A NaN operand gives a NaN; which
// payload survives when two operands carry one is not promised (the
// instruction picks by operand slot, and the two SIMD levels fill the slots
// differently).
//
// The product of two float32 is exact in float64, so the float64 sum s is
// rounded once and float32(s) a second time. The second rounding lands on
// the correctly rounded value unless s is a float32 midpoint the exact sum is
// not — the first rounding made the tie — or s is nonzero and below
// float32's normal range, where the midpoints are spaced by the exponent.
// Those go to fma32Slow, kept out of line.
// (float32(math.FMA(…)) is the float64 sum too, and double-rounds the same
// way.)
func fma32(a, b, c float32) float32 {
	if s := float64(a)*float64(b) + float64(c); roundsOnce(s) {
		return float32(s)
	}
	return fma32Slow(a, b, c)
}

// roundsOnce reports whether float32(s), for s a float64 sum a·b + c of
// float32 operands, is fma32(a, b, c): s is not a float32 midpoint and is
// zero or not below float32's normal range.
func roundsOnce(s float64) bool {
	// u<<1 drops the sign; less one, a zero wraps to the top and passes.
	u := math.Float64bits(s)
	return u&(1<<29-1) != 1<<28 && u<<1-1 >= (1023-126)<<53-1
}

// fmaTile is one reduction step of the portable 4×16 micro-kernel:
// acc[r][l] = fma32(av[r], line[l], acc[r][l]) for every row and lane. It
// runs fma32's fast path inline, four rows interleaved, and finishes the
// step through fma32 itself from the first lane that needs fma32Slow: a call
// in the hot loop's body would cost more than its arithmetic.
func fmaTile(acc *[4][PanelWidth]float32, av *[4]float32, line *[PanelWidth]float32) {
	a0, a1, a2, a3 := float64(av[0]), float64(av[1]), float64(av[2]), float64(av[3])
	for l, v := range line {
		w := float64(v)
		s0, s1, s2, s3 := a0*w+float64(acc[0][l]), a1*w+float64(acc[1][l]), a2*w+float64(acc[2][l]), a3*w+float64(acc[3][l])
		if !(roundsOnce(s0) && roundsOnce(s1) && roundsOnce(s2) && roundsOnce(s3)) {
			for ; l < PanelWidth; l++ {
				for r := range acc {
					acc[r][l] = fma32(av[r], line[l], acc[r][l])
				}
			}
			return
		}
		acc[0][l], acc[1][l], acc[2][l], acc[3][l] = float32(s0), float32(s1), float32(s2), float32(s3)
	}
}

// fma32Slow is fma32 by rounding to odd: TwoSum gives the float64 sum s and
// its exact error e; when e ≠ 0 and s is even, s steps one ulp toward the
// exact sum, so its last bit records that bits were lost and the one float32
// rounding after it is correct — a float64 carries more than two bits beyond
// a float32, denormals included. s is finite here: an infinite or NaN sum has
// its low 29 bits clear and takes fma32's fast path.
//
//go:noinline
func fma32Slow(a, b, c float32) float32 {
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	t := s - p
	e := (p - (s - t)) + (q - t)
	if u := math.Float64bits(s); e != 0 && u&1 == 0 {
		if (e > 0) == (s > 0) {
			u++
		} else {
			u--
		}
		s = math.Float64frombits(u)
	}
	return float32(s)
}
