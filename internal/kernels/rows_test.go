package kernels

import (
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// rowKinds fill one row of a hard case: NaNs with their own payloads, a row
// of nothing but −Inf, signed zeros, denormals, values near ±float32's
// largest, and seeded ordinary values salted with expSpecials.
var rowKinds = []func(r *tensor.RNG, row []float32){
	func(r *tensor.RNG, row []float32) { // ordinary, a few specials
		for i := range row {
			row[i] = (r.Float32()*2 - 1) * 12
		}
		for j := 0; j < 1+len(row)/8; j++ {
			row[r.Intn(len(row))] = expSpecials[r.Intn(len(expSpecials))]
		}
	},
	func(r *tensor.RNG, row []float32) { // NaN payloads of both signs among ordinary values
		for i := range row {
			row[i] = r.Float32()*4 - 2
		}
		payloads := []uint32{0x7fc00001, 0xffc12345, 0x7f800003, 0xff80beef}
		for j := 0; j < 1+len(row)/4; j++ {
			row[r.Intn(len(row))] = math.Float32frombits(payloads[r.Intn(len(payloads))])
		}
	},
	func(r *tensor.RNG, row []float32) { // nothing but −Inf
		for i := range row {
			row[i] = -inf32
		}
	},
	func(r *tensor.RNG, row []float32) { // signed zeros
		for i := range row {
			row[i] = 0
			if r.Intn(2) == 0 {
				row[i] = negZero32
			}
		}
	},
	func(r *tensor.RNG, row []float32) { // denormals of both signs
		for i := range row {
			row[i] = math.Float32frombits(uint32(1 + r.Intn(0x7fffff)))
			if r.Intn(2) == 0 {
				row[i] = -row[i]
			}
		}
	},
	func(r *tensor.RNG, row []float32) { // ±3e38: sums and squares overflow
		for i := range row {
			row[i] = 3e38
			if r.Intn(3) == 0 {
				row[i] = -3e38
			}
		}
	},
}

// hardRows returns rows×d1 floats, row i of kind i mod len(rowKinds) after
// an offset the seed picks.
func hardRows(seed uint64, rows, d1 int) []float32 {
	r := tensor.NewRNG(seed)
	vals := make([]float32, rows*d1)
	k0 := r.Intn(len(rowKinds))
	for i := 0; i < rows; i++ {
		rowKinds[(k0+i)%len(rowKinds)](r, vals[i*d1:(i+1)*d1])
	}
	return vals
}

// rowShapes are the row widths of the row-kernel suites: fewer columns than
// a vector, whole vectors, partial last vectors.
var rowShapes = []int{1, 3, 4, 7, 8, 10, 16, 17, 32, 37}

// TestSoftmaxSIMDMatchesTwinBitwise holds softmaxRows8 to softmaxRows, NaN
// payloads included, at every row count from 1 to 17 (one group, part of
// one, two and more), in place and not, on one lane and split over three.
func TestSoftmaxSIMDMatchesTwinBitwise(t *testing.T) {
	simdOnly(t, func(t *testing.T) {
		for _, d1 := range rowShapes {
			for rows := 1; rows <= 17; rows++ {
				vals := hardRows(uint64(100*d1+rows), rows, d1)
				want := make([]float32, rows*d1)
				softmaxRows(want, vals, d1)
				for _, lanes := range []int{1, 3} {
					for _, inPlace := range []bool{false, true} {
						src, dst := tensor.New(rows, d1), tensor.New(rows, d1)
						copy(src.Data(), vals)
						if inPlace {
							dst = src
						}
						NewSoftmaxOp(dst, src).Run(testPool(t, lanes))
						if d := exactBitDiff(dst.Data(), want); d >= 0 {
							t.Fatalf("%dx%d, %d lanes, in place %v: row %d col %d = %#08x, twin %#08x (input %#08x)", rows, d1, lanes, inPlace,
								d/d1, d%d1, math.Float32bits(dst.Data()[d]), math.Float32bits(want[d]), math.Float32bits(vals[d]))
						}
					}
				}

			}
		}
	})
}

// TestLayerNormSIMDMatchesTwinBitwise holds layerNormRows8 to layerNormRows
// the same way, over hard rows and a γ and β holding NaN, ±0 and denormals.
func TestLayerNormSIMDMatchesTwinBitwise(t *testing.T) {
	simdOnly(t, func(t *testing.T) {
		for _, d1 := range rowShapes {
			gb := hardRows(uint64(d1), 2, d1)
			gamma, beta := tensor.New(d1), tensor.New(d1)
			copy(gamma.Data(), gb[:d1])
			copy(beta.Data(), gb[d1:])
			for rows := 1; rows <= 17; rows++ {
				vals := hardRows(uint64(100*d1+rows), rows, d1)
				want := make([]float32, rows*d1)
				layerNormRows(want, vals, d1, gamma.Data(), beta.Data(), 1e-5)
				for _, lanes := range []int{1, 3} {
					for _, inPlace := range []bool{false, true} {
						src, dst := tensor.New(rows, d1), tensor.New(rows, d1)
						copy(src.Data(), vals)
						if inPlace {
							dst = src
						}
						NewLayerNormOp(dst, src, gamma, beta, &graph.LayerNormAttrs{Eps: 1e-5}).Run(testPool(t, lanes))
						if d := exactBitDiff(dst.Data(), want); d >= 0 {
							t.Fatalf("%dx%d, %d lanes, in place %v: row %d col %d = %#08x, twin %#08x (input %#08x)", rows, d1, lanes, inPlace,
								d/d1, d%d1, math.Float32bits(dst.Data()[d]), math.Float32bits(want[d]), math.Float32bits(vals[d]))
						}
					}
				}

			}
		}
	})
}

// TestLayerNormWithinToleranceOfRef holds LayerNormOp, on both paths, to the
// float64 LayerNormRef on ordinary rows: the float32 affine pass costs a few
// ulps.
func TestLayerNormWithinToleranceOfRef(t *testing.T) {
	eachPath(t, func(t *testing.T, simd bool) {
		for _, d1 := range rowShapes {
			const rows = 19
			src := tensor.NewRandom(uint64(d1), 3, rows, d1)
			gamma, beta := tensor.NewRandom(uint64(d1)+1, 1, d1), tensor.NewRandom(uint64(d1)+2, 0.5, d1)
			want, got := tensor.New(rows, d1), tensor.New(rows, d1)
			LayerNormRef(want, src, gamma, beta, 1e-5)
			op := NewLayerNormOp(got, src, gamma, beta, &graph.LayerNormAttrs{Eps: 1e-5})
			op.simd = simd
			op.Run(testPool(t, 2))
			for i, w := range want.Data() {
				if g := got.Data()[i]; math.Abs(float64(g-w)) > 1e-5*(1+math.Abs(float64(w))) {
					t.Fatalf("d1 %d: element %d = %v, LayerNormRef %v", d1, i, g, w)
				}
			}
		}
	})
}

// hardAttention fills q [bN, la, d], k and v [bN, lb, d] with hard rows of
// their head width dh: every rowKinds kind among q, k and v. With allPos the
// keys are positive and ordinary instead, so that a query row of nothing
// but −Inf scores nothing but −Inf.
func hardAttention(seed uint64, bN, la, lb, d, dh int, allPos bool) (q, k, v *tensor.Tensor) {
	q, k, v = tensor.New(bN, la, d), tensor.New(bN, lb, d), tensor.New(bN, lb, d)
	for i, t := range []*tensor.Tensor{q, k, v} {
		copy(t.Data(), hardRows(seed*3+uint64(i), t.NumElements()/dh, dh))
	}
	if allPos {
		r := tensor.NewRNG(seed)
		for i := range k.Data() {
			k.Data()[i] = r.Float32() + 0.5
		}
	}
	return q, k, v
}

// TestAttentionRowsSIMDMatchesTwinBitwise holds attentionRows8 to
// AttentionOp's portable rows over hard values — NaN payloads, ±Inf and
// score rows of nothing but −Inf, ±0, denormals, ±3e38 — at every query
// length 1–17, key length 1–33 and head width 1–16, with heads 1, 2 or 4,
// batch 1–3 and scales other than 1 taking turns, on one lane and three.
func TestAttentionRowsSIMDMatchesTwinBitwise(t *testing.T) {
	simdOnly(t, func(t *testing.T) {
		pools := []*sched.Pool{testPool(t, 1), testPool(t, 3)}
		scales := []float32{1, 0.35, -2, 3e38}
		seed := uint64(0)
		for dh := 1; dh <= 16; dh++ {
			for la := 1; la <= 17; la++ {
				for lb := 1; lb <= 33; lb++ {
					seed++
					h := []int{1, 2, 4}[seed%3]
					bN := 1 + int(seed/3%3)
					attrs := &graph.AttentionAttrs{Heads: h, QKScale: scales[seed%4], AVScale: scales[seed/4%4]}
					q, k, v := hardAttention(seed, bN, la, lb, h*dh, dh, seed%5 == 0)
					want := poisoned(bN, la, h*dh)
					twin := NewAttentionOp(want, q, k, v, attrs, make([]float32, AttentionWorkspaceFloats(lb, dh, 1)), 1)
					twin.simd = false
					twin.Run(nil)
					for _, pool := range pools {
						got := poisoned(bN, la, h*dh)
						NewAttentionOp(got, q, k, v, attrs, make([]float32, AttentionWorkspaceFloats(lb, dh, pool.Lanes())), pool.Lanes()).Run(pool)
						if i := exactBitDiff(got.Data(), want.Data()); i >= 0 {
							t.Fatalf("dh %d, la %d, lb %d, heads %d, batch %d, scales %v/%v, %d lanes: element %d = %#08x, twin %#08x",
								dh, la, lb, h, bN, attrs.QKScale, attrs.AVScale, pool.Lanes(), i,
								math.Float32bits(got.Data()[i]), math.Float32bits(want.Data()[i]))
						}
					}
				}
			}
		}
	})
}

// layerNormRowsFMA is layerNormRows with the variance's multiply-add fused
// (math.FMA), what a VFMADD231PD in layerNormRows8's Σ (x − mean)² would
// compute: the wrong answer, kept to find the rows that tell the two apart.
func layerNormRowsFMA(dst, src []float32, d1 int, gamma, beta []float32, eps float32) {
	for ; len(src) > 0; src, dst = src[d1:], dst[d1:] {
		row := src[:d1]
		inv := float32(1 / math.Sqrt(rowVariance(row, true)+float64(eps)))
		mean := rowMean(row)
		for i, v := range row {
			dst[i] = float32((v-float32(mean))*inv*gamma[i]) + beta[i]
		}
	}
}

// rowMean and rowVariance are layerNormRows' float64 mean and variance, the
// variance's multiply-add fused or not.
func rowMean(row []float32) float64 {
	var mean float64
	for _, v := range row {
		mean += float64(v)
	}
	return mean / float64(len(row))
}

func rowVariance(row []float32, fused bool) float64 {
	mean := rowMean(row)
	var variance float64
	for _, v := range row {
		dv := float64(v) - mean
		if fused {
			variance = math.FMA(dv, dv, variance)
		} else {
			variance += float64(dv * dv)
		}
	}
	return variance / float64(len(row))
}

// fusedVarianceRows searches seeded rows of d1 ≥ 3 floats for ones whose
// LayerNorm output moves a bit when the variance's multiply-add is fused.
// Random rows almost never do: the fused and the unfused variance differ by
// an ulp or two of a float64, and that must carry 1/√(variance + eps)
// across a float32 rounding boundary. So each row aims at one: its other
// elements are negative (a negative mean, so the variance grows with
// elements 0 and 1 above it), element 0 is bisected in [0, 2⁻⁴] until the
// variance meets the value whose inverse root lies halfway between two
// float32s, and element 1 then steps through multiples of a quarter of the
// variance's ulp, each a row to try.
func fusedVarianceRows(seed uint64, d1, want int, gamma, beta []float32) []float32 {
	r := tensor.NewRNG(seed)
	var hits []float32
	row := make([]float32, d1)
	plain, fused := make([]float32, d1), make([]float32, d1)
	eps := float64(float32(1e-5)) // as layerNormRows widens it
	for tries := 0; tries < 1000 && len(hits) < want*d1; tries++ {
		row[0], row[1] = 0, 0
		for i := 2; i < d1; i++ {
			row[i] = -1 - 3.5*(r.Float32()+1)
		}
		inv := float32(1 / math.Sqrt(rowVariance(row, false)+eps))
		mid := (float64(inv) + float64(math.Nextafter32(inv, 0))) / 2
		target := 1/(mid*mid) - eps
		lo, hi := uint32(0), math.Float32bits(1.0/16)
		for hi-lo > 1 {
			row[0] = math.Float32frombits(lo + (hi-lo)/2)
			if rowVariance(row, false) < target {
				lo = math.Float32bits(row[0])
			} else {
				hi = math.Float32bits(row[0])
			}
		}
		row[0] = math.Float32frombits(lo)
		step := (math.Nextafter(target, 2*target) - target) / 4
		for j := 0; j < 256; j++ {
			row[1] = float32(float64(j) * step)
			layerNormRows(plain, row, d1, gamma, beta, 1e-5)
			layerNormRowsFMA(fused, row, d1, gamma, beta, 1e-5)
			if exactBitDiff(fused, plain) >= 0 {
				hits = append(hits, row...)
				break
			}
		}
	}
	return hits
}

// TestLayerNormSIMDKeepsVarianceUnfused holds layerNormRows8 to the twin on
// rows where fusing the variance's multiply-add moves an output bit
// (fusedVarianceRows), which TestLayerNormSIMDMatchesTwinBitwise's rows are
// too unlikely to contain.
func TestLayerNormSIMDKeepsVarianceUnfused(t *testing.T) {
	simdOnly(t, func(t *testing.T) {
		for _, d1 := range []int{3, 8, 17, 32} {
			gamma, beta := tensor.NewRandom(uint64(d1), 1, d1), tensor.NewRandom(uint64(d1)+1, 0.5, d1)
			hits := fusedVarianceRows(uint64(d1), d1, 40, gamma.Data(), beta.Data())
			rows := len(hits) / d1
			if rows < 20 {
				t.Fatalf("d1 %d: found %d rows where a fused variance moves a bit", d1, rows)
			}
			want := make([]float32, len(hits))
			layerNormRows(want, hits, d1, gamma.Data(), beta.Data(), 1e-5)
			got := tensor.New(rows, d1)
			NewLayerNormOp(got, tensor.FromData(hits, rows, d1), gamma, beta, &graph.LayerNormAttrs{Eps: 1e-5}).Run(testPool(t, 1))
			if d := exactBitDiff(got.Data(), want); d >= 0 {
				t.Fatalf("d1 %d: row %d col %d = %#08x, twin %#08x", d1, d/d1, d%d1,
					math.Float32bits(got.Data()[d]), math.Float32bits(want[d]))
			}
		}
	})
}
