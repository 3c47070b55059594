package kernels

import (
	"encoding/binary"
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/tensor"
	"mnn/internal/winograd"
)

// Tests of the k×k convolutions on SIMD: SlidingConv on
// matmul.PackedB.MulTapsNC4Into and WinogradConv's transforms on linComb.

// rectTransform computes dst = L · src · Rᵀ where L is lm×lk, src is lk×rk,
// R is rm×rk; dst is lm×rm. scratch must hold lm*rk floats. It is the
// per-channel oracle of the pack-wise transforms and of transformFilters:
// zero coefficients of L are skipped, none of R, and the products are
// written float32(a*b) so that no platform fuses them into the add.
func rectTransform(dst, src, l, r []float32, lm, lk, rk, rm int, scratch []float32) {
	// scratch = L(lm×lk) · src(lk×rk)
	for i := 0; i < lm; i++ {
		li := l[i*lk : (i+1)*lk]
		row := scratch[i*rk : (i+1)*rk]
		for j := range row {
			row[j] = 0
		}
		for p, lv := range li {
			if lv == 0 {
				continue
			}
			sp := src[p*rk : (p+1)*rk]
			for j, sv := range sp {
				row[j] += float32(lv * sv)
			}
		}
	}
	// dst = scratch(lm×rk) · Rᵀ: dst[i][j] = Σ_p scratch[i][p]·R[j][p]
	for i := 0; i < lm; i++ {
		si := scratch[i*rk : (i+1)*rk]
		for j := 0; j < rm; j++ {
			rj := r[j*rk : (j+1)*rk]
			var sum float32
			for p := 0; p < rk; p++ {
				sum += float32(si[p] * rj[p])
			}
			dst[i*rm+j] = sum
		}
	}
}

// winogradParentRoute is the Winograd convolution as the engine ran it
// before the transforms went over channel packs: per tile and per channel,
// gather the patch with zero padding, rectTransform it, scatter into the
// GEMM operand; PackedB.MulInto per transform position; per tile and per
// output channel gather, rectTransform, add bias, activate. The result is
// NCHW; only logical elements are compared.
func winogradParentRoute(src, weight, bias *tensor.Tensor, a *graph.Conv2DAttrs, nh, nw, oh, ow int) *tensor.Tensor {
	kh, kw := a.KernelH, a.KernelW
	if kh == 1 {
		nh = 1
	}
	if kw == 1 {
		nw = 1
	}
	matsH, _ := winograd.Generate(nh, kh, winograd.DefaultF)
	matsW, _ := winograd.Generate(nw, kw, winograd.DefaultF)
	mh, mw := matsH.M, matsW.M
	mm := mh * mw
	N, ic, H, W, oc := src.Batch(), src.Channels(), src.Height(), src.Width(), weight.Dim(0)
	ph, pw := graph.ConvPadding(H, W, a)
	tile, tileT, scratch := make([]float32, mm), make([]float32, mm), make([]float32, mm)

	wT := make([]float32, mm*ic*oc)
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			rectTransform(tileT, weight.Data()[(o*ic+i)*kh*kw:(o*ic+i+1)*kh*kw], matsH.G, matsW.G, mh, kh, kw, mw, scratch)
			for p := 0; p < mm; p++ {
				wT[(p*ic+i)*oc+o] = tileT[p]
			}
		}
	}
	tilesY, tilesX := tensor.UpDiv(oh, nh), tensor.UpDiv(ow, nw)
	tiles := N * tilesY * tilesX
	srcT, dstT := make([]float32, mm*tiles*ic), make([]float32, mm*tiles*oc)
	for t := 0; t < tiles; t++ {
		n, ty, tx := t/(tilesY*tilesX), t/tilesX%tilesY, t%tilesX
		for c := 0; c < ic; c++ {
			for yy := 0; yy < mh; yy++ {
				for xx := 0; xx < mw; xx++ {
					iy, ix := ty*nh-ph+yy, tx*nw-pw+xx
					tile[yy*mw+xx] = 0
					if iy >= 0 && iy < H && ix >= 0 && ix < W {
						tile[yy*mw+xx] = src.At(n, c, iy, ix)
					}
				}
			}
			rectTransform(tileT, tile, matsH.BT, matsW.BT, mh, mh, mw, mw, scratch)
			for p := 0; p < mm; p++ {
				srcT[(p*tiles+t)*ic+c] = tileT[p]
			}
		}
	}
	for p := 0; p < mm; p++ {
		matmul.PackB(wT[p*ic*oc:(p+1)*ic*oc], ic, oc).MulInto(dstT[p*tiles*oc:(p+1)*tiles*oc], srcT[p*tiles*ic:(p+1)*tiles*ic], tiles)
	}
	dst := tensor.New(N, oc, oh, ow)
	for t := 0; t < tiles; t++ {
		n, ty, tx := t/(tilesY*tilesX), t/tilesX%tilesY, t%tilesX
		for o := 0; o < oc; o++ {
			for p := 0; p < mm; p++ {
				tile[p] = dstT[(p*tiles+t)*oc+o]
			}
			rectTransform(tileT, tile, matsH.AT, matsW.AT, nh, mh, mw, nw, scratch)
			for yy := 0; yy < nh && ty*nh+yy < oh; yy++ {
				for xx := 0; xx < nw && tx*nw+xx < ow; xx++ {
					v := tileT[yy*nw+xx]
					if bias != nil {
						v += bias.Data()[o]
					}
					if a.ReLU6 {
						v = relu6(v)
					} else if a.ReLU {
						v = relu(v)
					}
					dst.Set(n, o, ty*nh+yy, tx*nw+xx, v)
				}
			}
		}
	}
	return dst
}

// winogradPaths are the implementations of one prepared WinogradConv: the
// active one (assembly transforms where the host has AVX2) and the Go twin.
func winogradPaths(wc *WinogradConv) map[string]*WinogradConv {
	portable := *wc
	portable.simd = false
	return map[string]*WinogradConv{"active": wc, "portable": &portable}
}

// TestWinogradMatchesParentRouteBitwise is the differential test of the
// pack-wise transforms against the per-channel route they replaced, with
// NaN-poisoned source pad lanes, a NaN-prefilled destination and a
// NaN-prefilled workspace: every logical output must be written and carry
// the old bits, on one lane and on three, with a tile block that leaves a
// partial last block.
func TestWinogradMatchesParentRouteBitwise(t *testing.T) {
	seed := uint64(0)
	for _, k := range [][2]int{{3, 3}, {1, 7}, {7, 1}, {5, 5}, {2, 2}} {
		for _, tile := range []int{2, 4, 6} {
			for _, chans := range [][2]int{{3, 6}, {7, 5}, {16, 16}, {6, 19}} {
				for _, hw := range [][2]int{{11, 13}, {5, 4}, {16, 16}} {
					if tile+max(k[0], k[1])-1 > 12 {
						continue
					}
					seed++
					ic, oc := chans[0], chans[1]
					cc := convCase{n: 3, ic: ic, h: hw[0], w: hw[1], oc: oc, kh: k[0], kw: k[1], sh: 1, sw: 1,
						ph: k[0] / 2, pw: k[1] / 2, relu: seed%3 == 1, relu6: seed%3 == 2}
					a := cc.attrs()
					oh, ow, err := graph.ConvOutputSize(cc.h, cc.w, a)
					if err != nil || oh < 1 || ow < 1 {
						continue
					}
					src := tensor.NewRandom(seed, 1, cc.n, ic, cc.h, cc.w)
					specialActivations(src, seed, 3e38)
					weight := tensor.NewRandom(seed+100, 1, oc, ic, k[0], k[1])
					bias := tensor.NewRandom(seed+200, 1, oc)
					want := winogradParentRoute(src, weight, bias, a, tile, tile, oh, ow)
					wc, err := PrepareWinograd(weight, bias, a, tile, tile)
					if err != nil {
						t.Fatal(err)
					}
					wc.tileBlock = 7
					src4 := poisonedNC4(src)
					for name, impl := range winogradPaths(wc) {
						for _, lanes := range []int{1, 3} {
							dst4 := nanNC4(want.Shape()...)
							ws := make([]float32, impl.WorkspaceSize()*lanes)
							for i := range ws {
								ws[i] = nan32
							}
							impl.Run(dst4, src4, testPool(t, lanes), ws)
							got := dst4.ToLayout(tensor.NCHW)
							if d := firstBitDiff(got.Data(), want.Data()); d >= 0 {
								t.Fatalf("%+v F%d %s/%d lanes: element %d = %v (%#08x), parent route %v (%#08x)", cc, tile, name, lanes, d,
									got.Data()[d], math.Float32bits(got.Data()[d]), want.Data()[d], math.Float32bits(want.Data()[d]))
							}
							if oc%4 != 0 {
								// Pad lanes of the destination are left alone.
								if v := dst4.Data()[len(dst4.Data())-1]; v == v {
									t.Fatalf("%+v F%d %s: destination pad lane written: %v", cc, tile, name, v)
								}
							}
						}
					}
				}
			}
		}
	}
}

// slidingPaths are the implementations of one prepared SlidingConv, by the
// name of the micro-kernel level: every assembly tap kernel the host has and
// the portable twin, which defines the scheme's bits.
func slidingPaths(sc *SlidingConv) map[string]*SlidingConv {
	paths := map[string]*SlidingConv{}
	for _, isa := range matmul.ISAs() {
		view := *sc
		view.packed = sc.packed.WithISA(isa)
		paths[isa] = &view
	}
	return paths
}

// runSliding runs sc on `lanes` lanes over the NaN-pad-laned src4 into a
// NaN-prefilled destination and returns it as NCHW.
func runSliding(t testing.TB, sc *SlidingConv, src4 *tensor.Tensor, outShape []int, lanes int) *tensor.Tensor {
	dst4 := nanNC4(outShape...)
	sc.Run(dst4, src4, testPool(t, lanes))
	return dst4.ToLayout(tensor.NCHW)
}

// TestSlidingSIMDMatchesPortableBitwise is the differential test of the tap
// kernel behind SlidingConv: on inputs full of zeros of both signs,
// denormals and ±3e38 (products overflow, sums turn NaN) the active path
// must give the portable twin's bits on one lane and on three, every logical
// output written; on plain inputs both must also stay within the sliding
// scheme's tolerance of ConvRef. The cases cross kernel shape, stride,
// dilation, padding and channel counts on both sides of a pack and a panel,
// on images with an interior, with a single row of it and with none (every
// pixel's window crosses an edge), batch 3.
func TestSlidingSIMDMatchesPortableBitwise(t *testing.T) {
	skipAbsentISAs(t)
	seed := uint64(0)
	check := func(cc convCase) {
		a := cc.attrs()
		oh, ow, err := graph.ConvOutputSize(cc.h, cc.w, a)
		if err != nil || oh < 1 || ow < 1 {
			return
		}
		weight := tensor.NewRandom(seed+100, 1, cc.oc, cc.ic, cc.kh, cc.kw)
		bias := tensor.NewRandom(seed+200, 1, cc.oc)
		paths := slidingPaths(PrepareSliding(weight, bias, a))
		outShape := []int{cc.n, cc.oc, oh, ow}

		// ConvRef is slow: the tolerance check runs on the batch's first
		// sample (a pixel's bits depend on its own window alone, which
		// TestSlidingBitwiseAcrossBatch pins).
		plain := tensor.NewRandom(seed, 1, cc.n, cc.ic, cc.h, cc.w)
		first := tensor.FromData(plain.Data()[:cc.ic*cc.h*cc.w], 1, cc.ic, cc.h, cc.w)
		want := tensor.New(1, cc.oc, oh, ow)
		ConvRef(want, first, weight, bias, a)
		for name, sc := range paths {
			got := runSliding(t, sc, poisonedNC4(first), want.Shape(), 2)
			if d := tensor.MaxAbsDiff(want, got); !(d <= 1e-3) {
				t.Fatalf("%+v %s: max diff %g from ConvRef", cc, name, d)
			}
		}

		special := plain.Clone()
		specialActivations(special, seed, 3e38)
		src4 := poisonedNC4(special)
		ref := runSliding(t, paths["portable"], src4, outShape, 1).Data()
		for name, sc := range paths {
			for _, lanes := range []int{1, 3} {
				if name == "portable" && lanes == 1 {
					continue // ref itself
				}
				got := runSliding(t, sc, src4, outShape, lanes).Data()
				if d := firstBitDiff(got, ref); d >= 0 {
					t.Fatalf("%+v %s/%d lanes: element %d = %v (%#08x), portable on one lane %v (%#08x)", cc, name, lanes, d,
						got[d], math.Float32bits(got[d]), ref[d], math.Float32bits(ref[d]))
				}
			}
		}
	}
	for _, k := range [][2]int{{3, 3}, {5, 5}, {7, 7}, {1, 7}, {7, 1}} {
		for _, stride := range []int{1, 2} {
			for _, dil := range []int{1, 2} {
				for _, same := range []bool{false, true} {
					for _, ic := range []int{3, 7, 16, 130} {
						for _, oc := range []int{6, 16, 72} {
							seed++
							// One image size per case, cycling through: roomy, no
							// interior column for the wider kernels, tiny.
							hw := [][2]int{{13, 15}, {9, 5}, {11, 14}, {4, 3}}[seed%4]
							if testing.Short() && ic > 16 {
								continue
							}
							cc := convCase{n: 3, ic: ic, h: hw[0], w: hw[1], oc: oc, kh: k[0], kw: k[1], sh: stride, sw: stride,
								dh: dil, dw: dil, relu: seed%3 == 1, relu6: seed%3 == 2}
							if same {
								cc.ph, cc.pw = k[0]/2*dil, k[1]/2*dil
							}
							check(cc)
						}
					}
				}
			}
		}
	}
	// Unpadded 3×3 at output widths 1…27: a row is one run, so every split
	// of a run into twelve-pixel tiles, four-pixel blocks, the overlapping
	// tail block and single pixels is hit.
	for ow := 1; ow <= 27; ow++ {
		seed++
		check(convCase{n: 2, ic: 5, h: 4, w: ow + 2, oc: 20, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, relu: seed%2 == 1})
	}
}

// TestSlidingBitwiseAcrossBatch pins that a sliding-scheme pixel is a
// function of its window alone: each sample of a batch-3 run equals that
// sample run by itself.
func TestSlidingBitwiseAcrossBatch(t *testing.T) {
	cc := convCase{n: 3, ic: 7, h: 11, w: 9, oc: 20, kh: 3, kw: 3, sh: 2, sw: 2, ph: 1, pw: 1, relu: true}
	a := cc.attrs()
	src := tensor.NewRandom(5, 1, cc.n, cc.ic, cc.h, cc.w)
	sc := PrepareSliding(tensor.NewRandom(6, 1, cc.oc, cc.ic, 3, 3), tensor.NewRandom(7, 1, cc.oc), a)
	oh, ow, _ := graph.ConvOutputSize(cc.h, cc.w, a)
	all := runSliding(t, sc, poisonedNC4(src), []int{cc.n, cc.oc, oh, ow}, 2).Data()
	per, inPer := len(all)/cc.n, len(src.Data())/cc.n
	for n := 0; n < cc.n; n++ {
		one := tensor.New(1, cc.ic, cc.h, cc.w)
		copy(one.Data(), src.Data()[n*inPer:(n+1)*inPer])
		for _, lanes := range []int{1, 3} {
			if got := runSliding(t, sc, poisonedNC4(one), []int{1, cc.oc, oh, ow}, lanes).Data(); !bitsEqual(got, all[n*per:(n+1)*per]) {
				t.Fatalf("sample %d alone (%d lanes) differs bitwise from its slice of the batch-%d run", n, lanes, cc.n)
			}
		}
	}
}

// FuzzConvTapsNC4 drives kernel shape, stride, dilation, padding, channel
// counts, activation and raw float32 bit patterns through SlidingConv: the
// active path must equal the portable twin bitwise, and with no raw
// patterns (plain random inputs) both must be within tolerance of ConvRef.
// As in FuzzConv1x1NC4, the raw patterns go into weights and bias too.
func FuzzConvTapsNC4(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), uint8(9), uint8(2), uint8(7), uint8(0x8e), uint8(0), uint64(1), []byte{})
	f.Fuzz(func(t *testing.T, khR, kwR, strideR, dilR, padR, icR, ocR, hwR, actR uint8, seed uint64, raw []byte) {
		kh, kw := int(khR)%7+1, int(kwR)%7+1
		stride, dil := int(strideR)%3+1, int(dilR)%2+1
		ic, oc := int(icR)%21+1, int(ocR)%40+1
		h, w := int(hwR)%13+1, int(hwR/13)%13+1
		cc := convCase{n: 2, ic: ic, h: h, w: w, oc: oc, kh: kh, kw: kw, sh: stride, sw: stride, dh: dil, dw: dil,
			ph: int(padR) % (kh*dil + 1), pw: int(padR/8) % (kw*dil + 1), relu: actR%3 == 1, relu6: actR%3 == 2}
		a := cc.attrs()
		oh, ow, err := graph.ConvOutputSize(h, w, a)
		if err != nil || oh < 1 || ow < 1 {
			t.Skip()
		}
		src := tensor.NewRandom(seed, 1, cc.n, ic, h, w)
		weight := tensor.NewRandom(seed+1, 1, oc, ic, kh, kw)
		bias := tensor.NewRandom(seed+2, 1, oc)
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			src.Data()[(i*13)%len(src.Data())] = v
			weight.Data()[(i*29)%len(weight.Data())] = v
			bias.Data()[(i*7)%oc] = v
		}
		paths := slidingPaths(PrepareSliding(weight, bias, a))
		outShape := []int{cc.n, oc, oh, ow}
		src4 := poisonedNC4(src)
		ref := runSliding(t, paths["portable"], src4, outShape, 1)
		for isa, sc := range paths {
			got := runSliding(t, sc, src4, outShape, 2)
			if d := firstBitDiff(got.Data(), ref.Data()); d >= 0 {
				t.Fatalf("%+v: element %d %s %v, portable %v", cc, d, isa, got.Data()[d], ref.Data()[d])
			}
		}
		if len(raw) < 4 {
			want := tensor.New(outShape...)
			ConvRef(want, src, weight, bias, a)
			if d := tensor.MaxAbsDiff(want, ref); !(d <= 1e-3) {
				t.Fatalf("%+v: max diff %g from ConvRef", cc, d)
			}
		}
	})
}
