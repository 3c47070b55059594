package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

var (
	inf32     = float32(math.Inf(1))
	negZero32 = float32(math.Copysign(0, -1))
)

// expSpecials are the inputs every exp/GELU suite salts its data with: both
// zeros, denormals, the clamp bounds and their neighbours, values whose cube
// overflows, quiet and signalling NaNs of both signs, both infinities.
var expSpecials = []float32{
	0, negZero32, 1e-45, -1e-45, 1e-39, 1, -1, 10.06, -10.07, -12, -16, -16.000002, 20, -20,
	88, -88, expHi, expLo, math.Nextafter32(expHi, inf32), math.Nextafter32(expLo, -inf32), 88.5, -87.5, 100, -100,
	3e38, -3e38, 1e13, -1e13, nan32, -nan32, math.Float32frombits(0x7f800001), math.Float32frombits(0xffbfffff), inf32, -inf32,
}

// simdOnly runs f as the subtest "avx2", or reports that subtest skipped on a
// host whose AVX2 routines cannot run.
func simdOnly(t *testing.T, f func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		if !matmul.HaveAVX2() {
			t.Skip("this host has no avx2 kernels")
		}
		f(t)
	})
}

// eachPath runs f as the subtests "portable" (an op's simd field off) and
// "avx2" (on; skipped by name where the host cannot).
func eachPath(t *testing.T, f func(t *testing.T, simd bool)) {
	t.Run("portable", func(t *testing.T) { f(t, false) })
	simdOnly(t, func(t *testing.T) { f(t, true) })
}

func expInto(dst, src []float32, simd bool)  { mapInto(dst, src, simd, expPS, expf32) }
func geluInto(dst, src []float32, simd bool) { mapInto(dst, src, simd, geluPS, geluf32) }

// exactBitDiff is firstBitDiff without its NaN ≡ NaN allowance: the exp and
// GELU routines pin the NaN they return.
func exactBitDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkExpGELUAgainstTwins holds expInto and geluInto, assembly on, to the
// scalar twins on src, in place and out of place, with dst poisoned beyond
// len(src).
func checkExpGELUAgainstTwins(t *testing.T, src []float32) {
	t.Helper()
	n := len(src)
	wantE, wantG := make([]float32, n), make([]float32, n)
	for i, x := range src {
		wantE[i], wantG[i] = expf32(x), geluf32(x)
	}
	for _, c := range []struct {
		name string
		into func(dst, src []float32, simd bool)
		want []float32
	}{{"exp", expInto, wantE}, {"gelu", geluInto, wantG}} {
		dst := make([]float32, n+9)
		for i := range dst {
			dst[i] = nan32
		}
		c.into(dst[:n], src, true)
		inPlace := append([]float32(nil), src...)
		c.into(inPlace, inPlace, true)
		for _, got := range [][]float32{dst, inPlace} {
			if d := exactBitDiff(got, c.want); d >= 0 {
				t.Fatalf("%s, n=%d: element %d of %v (%#08x) = %v (%#08x), twin %v (%#08x)", c.name, n, d,
					src[d], math.Float32bits(src[d]), got[d], math.Float32bits(got[d]), c.want[d], math.Float32bits(c.want[d]))
			}
		}
		for i := n; i < len(dst); i++ {
			if dst[i] == dst[i] {
				t.Fatalf("%s, n=%d: wrote dst[%d] beyond the range", c.name, n, i)
			}
		}
	}
}

// TestExpSIMDMatchesTwinBitwise: expPS ≡ expf32 and geluPS ≡ geluf32 bit for
// bit — NaN payloads included — at every length 1…40 (every block/tail
// split), on the specials, and on every 2⁸-th float32 bit pattern.
func TestExpSIMDMatchesTwinBitwise(t *testing.T) {
	simdOnly(t, func(t *testing.T) {
		r := tensor.NewRNG(7)
		for n := 1; n <= 40; n++ {
			src := make([]float32, n)
			for i := range src {
				src[i] = (r.Float32()*2 - 1) * 30
				if r.Intn(3) == 0 {
					src[i] = expSpecials[r.Intn(len(expSpecials))]
				}
			}
			checkExpGELUAgainstTwins(t, src)
		}
		checkExpGELUAgainstTwins(t, expSpecials)
		src := make([]float32, 1<<16)
		for hi := 0; hi < 1<<8; hi++ {
			for i := range src {
				src[i] = math.Float32frombits(uint32(hi)<<24 | uint32(i)<<8 | uint32(hi))
			}
			checkExpGELUAgainstTwins(t, src)
		}
	})
}

// FuzzExpPS: arbitrary bytes as float32s, assembly ≡ twins.
func FuzzExpPS(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !matmul.HaveAVX2() {
			t.Skip("this host has no avx2 kernels")
		}
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkExpGELUAgainstTwins(t, src)
	})
}

// TestExpTwinWithinOneUlpOfMathExp bounds the contract's error: relative
// error under 2⁻²³ against float64 math.Exp on every 2⁸-th float32 of
// [−87.3, 88.3].
func TestExpTwinWithinOneUlpOfMathExp(t *testing.T) {
	worst, at := 0.0, float32(0)
	sweep := func(from, to float32) {
		for b := math.Float32bits(from); b <= math.Float32bits(to); b += 1 << 8 {
			x := math.Float32frombits(b)
			want := math.Exp(float64(x))
			if e := math.Abs(float64(expf32(x))-want) / want; e > worst {
				worst, at = e, x
			}
		}
	}
	sweep(1e-30, 88.3)
	sweep(-1e-30, -87.3)
	t.Logf("max relative error %.3f·2⁻²³ at x = %v", worst*(1<<23), at)
	if worst > 1.0/(1<<23) {
		t.Fatalf("expf32(%v) is off by %.3f·2⁻²³ relative, bound 1.0", at, worst*(1<<23))
	}
}

func geluRef64(x float32) float64 {
	const c = 0.7978845608028654
	v := float64(x)
	return 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
}

// TestGELUWithinToleranceOfRef is the tolerance half of the pin decision:
// |geluf32 − GELURef's formula| ≤ 1e−6 on every 2⁸-th float32 of [−20, 20],
// and ±0 exactly.
func TestGELUWithinToleranceOfRef(t *testing.T) {
	worst, at := 0.0, float32(0)
	for _, sign := range []uint32{0, 1 << 31} {
		for b := uint32(0); b <= math.Float32bits(20); b += 1 << 8 {
			x := math.Float32frombits(b | sign)
			if e := math.Abs(float64(geluf32(x)) - geluRef64(x)); e > worst {
				worst, at = e, x
			}
		}
	}
	t.Logf("max |Δ| %.3g at x = %v", worst, at)
	if worst > 1e-6 {
		t.Fatalf("geluf32(%v) is %.3g from the float64 formula, bound 1e-6", at, worst)
	}
	for _, z := range []float32{0, negZero32} {
		if got := geluf32(z); math.Float32bits(got) != math.Float32bits(z) {
			t.Fatalf("geluf32(%v) = %v (%#08x)", z, got, math.Float32bits(got))
		}
	}
}

// TestTranscendentalClampSpecials is the table of special values, held by the
// scalar twins and by the assembly alike (nine copies: one block and a tail):
// a clamp must pass NaN on, not launder it into a bound.
func TestTranscendentalClampSpecials(t *testing.T) {
	isNaN := func(v float32) bool { return v != v }
	is := func(want float32) func(float32) bool { return func(v float32) bool { return v == want } }
	tinyNeg := func(v float32) bool { return v > -1e-36 && math.Signbit(float64(v)) }
	allNaN := func(out []float32) bool {
		for _, v := range out {
			if !isNaN(v) {
				return false
			}
		}
		return true
	}
	eachPath(t, func(t *testing.T, simd bool) {
		for _, c := range []struct {
			name string
			into func(dst, src []float32, simd bool)
			x    float32
			ok   func(float32) bool
		}{
			{"exp(NaN) = NaN", expInto, nan32, isNaN},
			{"exp(-NaN) = NaN", expInto, -nan32, isNaN},
			{"exp(-Inf) = exp(expLo), the smallest normal", expInto, -inf32, func(v float32) bool { return v == expf32(expLo) && v > 1.17e-38 && v < 1.18e-38 }},
			{"exp(+Inf) = exp(expHi), finite", expInto, inf32, func(v float32) bool { return v == expf32(expHi) && v > 2.3e38 && v < inf32 }},
			{"exp(0) = 1", expInto, 0, is(1)},
			{"exp(-0) = 1", expInto, negZero32, is(1)},
			{"GELU(NaN) = NaN", geluInto, nan32, isNaN},
			{"GELU(+Inf) = +Inf", geluInto, inf32, is(inf32)},
			{"GELU(3e38) = 3e38", geluInto, 3e38, is(3e38)},
			{"GELU(-Inf) = GELU(geluLo)", geluInto, -inf32, func(v float32) bool { return v == geluf32(geluLo) && tinyNeg(v) }},
			{"GELU(-3e38) tiny negative", geluInto, -3e38, tinyNeg},
			{"GELU(-1e13) tiny negative", geluInto, -1e13, tinyNeg},
			{"GELU(-12) tiny negative", geluInto, -12, tinyNeg},
			{"GELU(-10.07) tiny negative", geluInto, -10.07, tinyNeg},
		} {
			src, dst := make([]float32, 9), make([]float32, 9)
			for i := range src {
				src[i] = c.x
			}
			c.into(dst, src, simd)
			for i, got := range dst {
				if !c.ok(got) {
					t.Errorf("%s: lane %d got %v (%#08x)", c.name, i, got, math.Float32bits(got))
					break
				}
			}
		}

		// Softmax rows, each the middle of three so a leak across rows shows.
		plain := []float32{0.5, -1, 2, 0.25, 1, 1, -3, 0, 0.125, 4}
		for _, c := range []struct {
			name string
			row  []float32
			ok   func(out []float32) bool
		}{
			{"a NaN in the row → all NaN", []float32{1, 2, nan32, 3, 0, 0, 0, 0, 0, 0}, allNaN},
			{"all -Inf → all NaN, as SoftmaxRef", []float32{-inf32, -inf32, -inf32, -inf32, -inf32, -inf32, -inf32, -inf32, -inf32, -inf32}, allNaN},
			{"a +Inf in the row → all NaN (Inf − Inf poisons the sum), as SoftmaxRef", []float32{0, inf32, 0, 0, 0, 0, 0, 0, 0, 0}, allNaN},
			{"one 3e38 among -3e38 → 1 and exp(-Inf)s, no overflow", []float32{-3e38, 3e38, -3e38, -3e38, -3e38, -3e38, -3e38, -3e38, -3e38, -3e38}, func(out []float32) bool {
				for i, v := range out {
					if i == 1 && v != 1 || i != 1 && v != expf32(-inf32) {
						return false
					}
				}
				return true
			}},
		} {
			vals := append(append(append([]float32(nil), plain...), c.row...), plain...)
			out := softmaxRows(t, vals, 3, 10, 1, simd)
			if !c.ok(out[10:20]) {
				t.Errorf("softmax, %s: got %v", c.name, out[10:20])
			}
			if d := exactBitDiff(out[20:], out[:10]); d >= 0 || allNaN(out[:1]) {
				t.Errorf("softmax, %s: the rows around it differ or are NaN: %v and %v", c.name, out[:10], out[20:])
			}
		}
	})
}

// TestGELUPositionIndependent: an element's GELU bits are geluf32 of it at
// every offset of a longer buffer and under every chunk split — assembly
// blocks and twin tails land differently each time — which is what batched ≡
// unbatched and threads 1/2/3 rest on.
func TestGELUPositionIndependent(t *testing.T) {
	const n = 67
	r := tensor.NewRNG(3)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = (r.Float32()*2 - 1) * 12
	}
	copy(vals, expSpecials)
	eachPath(t, func(t *testing.T, simd bool) {
		for off := 0; off < 9; off++ {
			for _, lanes := range []int{1, 2, 3} {
				src, dst := tensor.New(1, off+n), tensor.New(1, off+n)
				copy(src.Data()[off:], vals)
				op := NewGELUOp(dst, src)
				op.simd = simd
				op.Run(testPool(t, lanes))
				for i, x := range vals {
					if got, want := dst.Data()[off+i], geluf32(x); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("offset %d, %d lanes: GELU(%v) = %#08x, geluf32 %#08x", off, lanes, x, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	})
}

// softmaxRows runs SoftmaxOp over rows × d1 values.
func softmaxRows(t *testing.T, vals []float32, rows, d1, lanes int, simd bool) []float32 {
	src, dst := tensor.New(rows, d1), tensor.New(rows, d1)
	copy(src.Data(), vals)
	op := NewSoftmaxOp(dst, src)
	op.simd = simd
	op.Run(testPool(t, lanes))
	return dst.Data()
}

// TestSoftmaxRowIndependent: a row's bits are the same alone, at every row
// offset of a taller tensor, under chunk splits 1/2/3, and with the assembly
// on or off.
func TestSoftmaxRowIndependent(t *testing.T) {
	eachPath(t, func(t *testing.T, simd bool) {
		for _, d1 := range []int{1, 3, 8, 10, 16, 37} {
			row := make([]float32, d1)
			r := tensor.NewRNG(uint64(d1))
			for i := range row {
				row[i] = (r.Float32()*2 - 1) * 9
			}
			want := append([]float32(nil), softmaxRows(t, row, 1, d1, 1, false)...)
			for _, rows := range []int{1, 2, 5, 13} {
				for at := 0; at < rows; at++ {
					for _, lanes := range []int{1, 2, 3} {
						vals := make([]float32, rows*d1)
						for i := range vals {
							vals[i] = (r.Float32()*2 - 1) * 30
						}
						copy(vals[at*d1:], row)
						got := softmaxRows(t, vals, rows, d1, lanes, simd)[at*d1:][:d1]
						if d := exactBitDiff(got, want); d >= 0 {
							t.Fatalf("d1 %d, row %d of %d, %d lanes: element %d = %#08x, alone on the portable path %#08x", d1, at, rows, lanes, d,
								math.Float32bits(got[d]), math.Float32bits(want[d]))
						}
					}
				}
			}
		}
	})
}

// TestSoftmaxOpWithinToleranceOfRef: the float32 row recipe against the
// float64 SoftmaxRef, per element and on the row sum.
func TestSoftmaxOpWithinToleranceOfRef(t *testing.T) {
	eachPath(t, func(t *testing.T, simd bool) {
		for _, d1 := range []int{1, 4, 8, 10, 16, 1000} {
			for _, scale := range []float32{1, 8, 40} {
				const rows = 6
				src := tensor.NewRandom(uint64(d1), scale, rows, d1)
				want := tensor.New(rows, d1)
				SoftmaxRef(want, src, 1)
				got := softmaxRows(t, src.Data(), rows, d1, 2, simd)
				for r := 0; r < rows; r++ {
					sum := 0.0
					for i := 0; i < d1; i++ {
						g, w := float64(got[r*d1+i]), float64(want.Data()[r*d1+i])
						sum += g
						if math.Abs(g-w) > 2e-7+4e-6*w {
							t.Fatalf("d1 %d, scale %v: [%d,%d] = %v, SoftmaxRef %v", d1, scale, r, i, g, w)
						}
					}
					if math.Abs(sum-1) > 1e-5 {
						t.Fatalf("d1 %d, scale %v: row %d sums to %v", d1, scale, r, sum)
					}
				}
			}
		}
	})
}

// attentionParentQK and attentionParentAV are the attention GEMMs as they
// were before dotCols, kept verbatim as the oracle of its bits.
func attentionParentQK(out, q, k []float32, bN, la, lb, d, h int, scale float32) {
	dh := d / h
	for item := 0; item < bN*h; item++ {
		b, hd := item/h, item%h
		for i := 0; i < la; i++ {
			qr := q[(b*la+i)*d+hd*dh:]
			outRow := out[(b*h*la+hd*la+i)*lb:]
			for j := 0; j < lb; j++ {
				kr := k[(b*lb+j)*d+hd*dh:]
				var acc float32
				for p := 0; p < dh; p++ {
					acc += float32(qr[p] * kr[p])
				}
				outRow[j] = acc * scale
			}
		}
	}
}

func attentionParentAV(out, a, v []float32, bN, la, lb, d, h int, scale float32) {
	hla, dh := h*la, d/h
	for item := 0; item < bN*h; item++ {
		b, hd := item/h, item%h
		for i := 0; i < la; i++ {
			score := a[(b*hla+hd*la+i)*lb:]
			o := out[(b*la+i)*d+hd*dh:]
			for j := 0; j < dh; j++ {
				var acc float32
				for p := 0; p < lb; p++ {
					acc += float32(score[p] * v[(b*lb+p)*d+hd*dh+j])
				}
				o[j] = acc * scale
			}
		}
	}
}

// TestAttentionSIMDMatchesScalarBitwise: QK and AV through MatMulOp, assembly
// on and off, against the loops they replaced — bit for bit, into
// NaN-poisoned outputs, on one lane and three. d = 32 with 4 heads is the
// zoo's 8-wide head; 1 head makes it 32 wide (tile chunks of 8 keys); d = 40
// gives heads of 40 (too wide for the tile: scalar columns) and 10 (a column
// tail in AV).
func TestAttentionSIMDMatchesScalarBitwise(t *testing.T) {
	eachPath(t, func(t *testing.T, simd bool) {
		pools := []*sched.Pool{testPool(t, 1), testPool(t, 3)}
		seed := uint64(0)
		for _, d := range []int{32, 40} {
			for _, h := range []int{1, 4} {
				for _, bN := range []int{1, 3} {
					for _, la := range []int{1, 3, 4, 8, 12, 16} {
						for _, lb := range []int{1, 3, 4, 8, 12, 16, 40} {
							seed++
							attrs := graph.MatMulAttrs{Heads: h}
							if seed%2 == 0 {
								attrs.Scale = 1 / float32(math.Sqrt(float64(d/h)))
							}
							q := tensor.NewRandom(seed, 2, bN, la, d)
							kv := tensor.NewRandom(seed+1000, 2, bN, lb, d)
							score := tensor.NewRandom(seed+2000, 1, bN, h*la, lb)
							wantQK := make([]float32, bN*h*la*lb)
							wantAV := make([]float32, bN*la*d)
							attentionParentQK(wantQK, q.Data(), kv.Data(), bN, la, lb, d, h, resolveScale(attrs.Scale))
							attentionParentAV(wantAV, score.Data(), kv.Data(), bN, la, lb, d, h, resolveScale(attrs.Scale))
							for _, pool := range pools {
								gotQK, gotAV := tensor.New(bN, h*la, lb), tensor.New(bN, la, d)
								for _, o := range [][]float32{gotQK.Data(), gotAV.Data()} {
									for i := range o {
										o[i] = nan32
									}
								}
								qkAttrs := attrs
								qkAttrs.TransposeB = true
								qk := NewMatMulBatchedOp(gotQK, q, kv, &qkAttrs)
								av := NewMatMulBatchedOp(gotAV, score, kv, &attrs)
								qk.simd, av.simd = simd, simd
								qk.Run(pool)
								av.Run(pool)
								name := fmt.Sprintf("d %d, heads %d, batch %d, la %d, lb %d, %d lanes", d, h, bN, la, lb, pool.Lanes())
								if i := exactBitDiff(gotQK.Data(), wantQK); i >= 0 {
									t.Fatalf("QK, %s: element %d = %v, scalar loop %v", name, i, gotQK.Data()[i], wantQK[i])
								}
								if i := exactBitDiff(gotAV.Data(), wantAV); i >= 0 {
									t.Fatalf("AV, %s: element %d = %v, scalar loop %v", name, i, gotAV.Data()[i], wantAV[i])
								}
							}
						}
					}
				}
			}
		}
	})
}
