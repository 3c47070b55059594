package kernels

import "math"

// expf32 is the engine's one float32 exponential and its numeric contract;
// expPS and geluPS (exp_amd64.s, macro EXP8) do the same operations in the
// same order on eight lanes and are bit-identical to the twins here on every
// float32 bit pattern. Each multiply and add is rounded on its own — the
// float32(...) conversions stop a fusing compiler (arm64, GOAMD64=v3), the
// assembly has no FMA — so a result depends on its input alone, not on its
// position, the block/tail split, the batch size or the thread count.
//
// Cephes' expf: clamp to [expLo, expHi]; n = x·log₂e rounded to nearest-even
// by adding and subtracting 1.5·2²³; r = x − n·ln2 with ln2 = expC1 + expC2
// (n·expC1 is exact); e^r ≈ 1 + r + r²·P(r), P of degree 5 by Horner; times
// 2ⁿ by adding n to the exponent field. Relative error < 2⁻²³ against
// math.Exp (TestExpTwinWithinOneUlpOfMathExp). NaN in → that NaN, quieted;
// exp(−Inf) = exp(expLo), the smallest normal; exp(+Inf) = exp(expHi) ≈
// 2.4e38, finite — what the two users below want.
const (
	expHi    float32 = 88.37626
	expLo    float32 = -87.33654
	expLog2e float32 = 1.44269504
	expMagic float32 = 12582912 // 1.5·2²³
	expC1    float32 = 0.693359375
	expC2    float32 = -2.12194440e-4
	expP0    float32 = 1.9875691500e-4
	expP1    float32 = 1.3981999507e-3
	expP2    float32 = 8.3334519073e-3
	expP3    float32 = 4.1665795894e-2
	expP4    float32 = 1.6666665459e-1
	expP5    float32 = 5.0000001201e-1
)

func expf32(x float32) float32 {
	if x != x {
		return x + x // x with its quiet bit set, as the instructions return it
	}
	if x > expHi {
		x = expHi
	}
	if x < expLo {
		x = expLo
	}
	n := float32(float32(float32(x*expLog2e)+expMagic) - expMagic)
	r := float32(x - float32(n*expC1))
	r = float32(r - float32(n*expC2))
	p := expP0
	p = float32(float32(p*r) + expP1)
	p = float32(float32(p*r) + expP2)
	p = float32(float32(p*r) + expP3)
	p = float32(float32(p*r) + expP4)
	p = float32(float32(p*r) + expP5)
	y := float32(float32(float32(p*float32(r*r))+r) + 1)
	return math.Float32frombits(math.Float32bits(y) + uint32(int32(n))<<23)
}

// geluf32 is the tanh-form GELU, 0.5·x·(1 + tanh(u)), u = √(2/π)·(x +
// 0.044715·x³), as the identical x / (1 + exp(−2u)): one exp, one correctly
// rounded division, no cancellation; |Δ| ≤ 1e−6 against GELURef on [−20, 20]
// (TestGELUWithinToleranceOfRef). GELU(±0) = ±0, so NC4HW4 pad lanes stay
// zero; GELU(NaN) = that NaN, quieted; GELU(+Inf) = +Inf. x is clamped at
// geluLo first: below −10.1 exp has saturated at exp(expHi) and the true
// value is under 1e−37, so every x ≤ geluLo — −3e38 and −Inf too, where the
// bare quotient would give −1.25 and −Inf, and GELURef's −Inf·0 gives NaN —
// is the tiny negative geluf32(geluLo).
const (
	geluLo float32 = -16
	geluK  float32 = 0.044715
	geluM  float32 = -1.5957691216 // −2·√(2/π)
)

func geluf32(x float32) float32 {
	if x != x {
		return x + x
	}
	if x < geluLo {
		x = geluLo
	}
	x3 := float32(float32(x*x) * x)
	a := float32(float32(x+float32(geluK*x3)) * geluM)
	return x / float32(1+expf32(a))
}

// mapInto sets dst[i] = twin(src[i]); dst may be src. simd sends whole blocks
// of eight to ps, the assembly of twin.
func mapInto(dst, src []float32, simd bool, ps func(dst, src *float32, blocks int), twin func(float32) float32) {
	i := 0
	if simd && len(src) >= 8 {
		i = len(src) &^ 7
		ps(&dst[0], &src[0], i/8)
	}
	for ; i < len(src); i++ {
		dst[i] = twin(src[i])
	}
}
