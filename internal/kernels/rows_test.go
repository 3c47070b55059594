package kernels

import (
	"math"
	"testing"

	"mnn/internal/graph"
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
