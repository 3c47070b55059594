package kernels

import (
	"encoding/binary"
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// Bitwise tests of the int8 convolution: QuantConv on the vector quantizer
// and matmul.PackedBInt8.MulTapsNC4Into against its portable twin and
// against the im2col route it replaced.

// parentQuantize is activation quantization as the im2col route's two scalar
// functions wrote it (signed: round half away from zero, clamp ±127;
// unsigned: add a half, clamp 0..254), on the baseline amd64 target where no
// multiply fuses into an add — which the float32 conversions spell out.
func parentQuantize(v, inv float32, unsigned bool) int32 {
	r := float32(v * inv)
	if unsigned {
		r += 0.5
		if r >= 254 {
			return 254
		}
		if r < 0 {
			return 0
		}
		return int32(r)
	}
	if r >= 0 {
		r += 0.5
		if r >= 127 {
			return 127
		}
		return int32(r)
	}
	r -= 0.5
	if r <= -127 {
		return -127
	}
	return int32(r)
}

// quantConvParentRoute is the int8 convolution as the engine ran it before
// the tap kernel: per sample, quantize while gathering the im2col patch
// matrix [pixels, ic·kh·kw] (zero outside the image), multiply it against
// the [ic·kh·kw, oc] quantized weight with the reference GEMM, and
// requantize (scale, bias, activation) while scattering. src is NCHW and
// holds no NaN; so is the result.
func quantConvParentRoute(src, weight, bias *tensor.Tensor, a *graph.Conv2DAttrs, inputScale float32, unsigned bool, oh, ow int) *tensor.Tensor {
	N, ic, H, W, oc := src.Batch(), src.Channels(), src.Height(), src.Width(), weight.Dim(0)
	kh, kw := a.KernelH, a.KernelW
	sh, sw, dh, dw := strideOr1(a.StrideH), strideOr1(a.StrideW), dilOr1(a.DilationH), dilOr1(a.DilationW)
	ph, pw := graph.ConvPadding(H, W, a)
	k, px := ic*kh*kw, oh*ow
	q, wScales := quantizeWeightChannels(weight.Data(), oc, k)
	bT := make([]int8, k*oc)
	for o := 0; o < oc; o++ {
		for i := 0; i < k; i++ {
			bT[i*oc+o] = q[o*k+i]
		}
	}
	dst := tensor.New(N, oc, oh, ow)
	cols, acc := make([]int32, px*k), make([]int32, px*oc)
	for n := 0; n < N; n++ {
		scale := actScaleFromMax(inputScale, maxAbs32(src.Data()[n*ic*H*W:(n+1)*ic*H*W], false))
		inv := 1 / scale
		for p := 0; p < px; p++ {
			for c := 0; c < ic; c++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := p/ow*sh-ph+ky*dh, p%ow*sw-pw+kx*dw
						v := int32(0)
						if iy >= 0 && iy < H && ix >= 0 && ix < W {
							v = parentQuantize(src.At(n, c, iy, ix), inv, unsigned)
						}
						cols[p*k+(c*kh+ky)*kw+kx] = v
					}
				}
			}
		}
		if unsigned {
			u := make([]uint8, len(cols))
			for i, v := range cols {
				u[i] = uint8(v)
			}
			matmul.MulInt8Ref(acc, u, bT, px, k, oc)
		} else {
			s := make([]int8, len(cols))
			for i, v := range cols {
				s[i] = int8(v)
			}
			matmul.MulInt8Ref(acc, s, bT, px, k, oc)
		}
		for o := 0; o < oc; o++ {
			outScale, b := scale*wScales[o], float32(0)
			if bias != nil {
				b = bias.Data()[o]
			}
			for p := 0; p < px; p++ {
				v := float32(float32(acc[p*oc+o])*outScale) + b
				if a.ReLU6 {
					v = relu6(v)
				} else if a.ReLU {
					v = relu(v)
				}
				dst.Set(n, o, p/ow, p%ow, v)
			}
		}
	}
	return dst
}

// quantPaths are the implementations of one prepared QuantConv: the active
// one (assembly quantizer and tap kernel where the host has AVX2) and the
// portable twins.
func quantPaths(qc *QuantConv) map[string]*QuantConv {
	portable := *qc
	portable.simd = false
	portable.packed = qc.packed.Portable()
	portable.quantT.c = &portable
	return map[string]*QuantConv{"active": qc, "portable": &portable}
}

// runQuant runs qc on `lanes` lanes over the NaN-pad-laned src4 into a
// NaN-prefilled destination, through a NaN-prefilled workspace, and returns
// the result as NCHW.
func runQuant(t testing.TB, qc *QuantConv, src4 *tensor.Tensor, outShape []int, lanes int) *tensor.Tensor {
	dst4 := nanNC4(outShape...)
	ws := make([]float32, QuantConvWorkspaceFloats(src4.Channels(), src4.Height(), src4.Width()))
	for i := range ws {
		ws[i] = nan32
	}
	qc.Run(dst4, src4, testPool(t, lanes), ws)
	return dst4.ToLayout(tensor.NCHW)
}

// quantCase is one convolution with its quantization mode and inputs.
type quantCase struct {
	cc                convCase
	unsigned          bool
	inputScale        float32 // 0: per-sample dynamic scale
	src, weight, bias *tensor.Tensor
	oh, ow            int
}

// newQuantCase draws the inputs of a case. Beside zeros of both signs and
// denormals the activations hold, with a calibrated scale (a power of two, so
// v/scale is exact), exact .5 ties on both sides of zero, values at and far
// beyond the clamp and ±3e38; with a dynamic scale the largest magnitude sets
// the step, so there the extremes stay small.
func newQuantCase(cc convCase, unsigned, calibrated bool, seed uint64) (quantCase, bool) {
	a := cc.attrs()
	oh, ow, err := graph.ConvOutputSize(cc.h, cc.w, a)
	if err != nil || oh < 1 || ow < 1 {
		return quantCase{}, false
	}
	qc := quantCase{cc: cc, unsigned: unsigned, oh: oh, ow: ow,
		src:    tensor.NewRandom(seed, 1, cc.n, cc.ic, cc.h, cc.w),
		weight: tensor.NewRandom(seed+100, 1, cc.oc, cc.ic, cc.kh, cc.kw),
		bias:   tensor.NewRandom(seed+200, 1, cc.oc)}
	if !calibrated {
		specialActivations(qc.src, seed, 2)
		return qc, true
	}
	qc.inputScale = 1.0 / 64
	specialActivations(qc.src, seed, 3e38)
	r, d := tensor.NewRNG(seed+300), qc.src.Data()
	for _, steps := range []float32{0.5, -0.5, 1.5, -2.5, 126.5, -126.5, 127, -127, 127.5, 253.5, 254.5, 300, -300, 1e6} {
		d[r.Intn(len(d))] = steps / 64
	}
	return qc, true
}

// forEachQuantCase crosses kernel shape, stride, dilation, padding and
// channel counts on both sides of a pack and a panel with the signed and
// unsigned modes and calibrated and dynamic scales, batch 3; image sizes
// cycle through roomy, no interior column for the wider kernels, and tiny.
func forEachQuantCase(t *testing.T, fn func(qc quantCase)) {
	seed := uint64(0)
	for _, k := range [][2]int{{1, 1}, {3, 3}, {5, 5}, {1, 7}} {
		for _, stride := range []int{1, 2} {
			for _, dil := range []int{1, 2} {
				for _, same := range []bool{false, true} {
					for _, ic := range []int{3, 7, 16, 130} {
						for _, oc := range []int{5, 16, 72} {
							seed++
							if testing.Short() && ic > 16 {
								continue
							}
							hw := [][2]int{{13, 15}, {9, 5}, {11, 14}, {4, 3}}[seed%4]
							cc := convCase{n: 3, ic: ic, h: hw[0], w: hw[1], oc: oc, kh: k[0], kw: k[1], sh: stride, sw: stride,
								dh: dil, dw: dil, relu: seed%3 == 1, relu6: seed%3 == 2}
							if same {
								cc.ph, cc.pw = k[0]/2*dil, k[1]/2*dil
							}
							for mode := 0; mode < 4; mode++ {
								if qc, ok := newQuantCase(cc, mode&1 != 0, mode&2 != 0, seed); ok {
									fn(qc)
								}
							}
						}
					}
				}
			}
		}
	}
}

func (qc *quantCase) prepare() *QuantConv {
	c := PrepareQuantConv(qc.weight, qc.bias, qc.cc.attrs(), qc.inputScale)
	c.Unsigned = qc.unsigned
	return c
}

func (qc *quantCase) outShape() []int { return []int{qc.cc.n, qc.cc.oc, qc.oh, qc.ow} }

// TestInt8TapsSIMDMatchesPortableBitwise is the differential test of the
// assembly behind QuantConv — the quantizer and the int8 tap kernel with its
// requantizing store — on one lane and on three against the portable twins
// on one (TestQuantConvMatchesParentRouteBitwise runs those on two), every
// logical output written. Here the activations also hold NaN and ±Inf,
// which both must quantize alike.
func TestInt8TapsSIMDMatchesPortableBitwise(t *testing.T) {
	forEachQuantCase(t, func(qc quantCase) {
		d := qc.src.Data()
		for i, v := range []float32{nan32, float32(math.Inf(1)), float32(math.Inf(-1))} {
			d[(i*37+5)%len(d)] = v
		}
		paths, src4 := quantPaths(qc.prepare()), poisonedNC4(qc.src)
		ref := runQuant(t, paths["portable"], src4, qc.outShape(), 1).Data()
		for _, lanes := range []int{1, 3} {
			got := runQuant(t, paths["active"], src4, qc.outShape(), lanes).Data()
			if d := firstBitDiff(got, ref); d >= 0 {
				t.Fatalf("%+v unsigned=%v scale=%v %d lanes: element %d = %v (%#08x), portable on one lane %v (%#08x)", qc.cc, qc.unsigned, qc.inputScale,
					lanes, d, got[d], math.Float32bits(got[d]), ref[d], math.Float32bits(ref[d]))
			}
		}
	})
}

// TestQuantConvMatchesParentRouteBitwise is the differential test of the
// quantize-once tap GEMM against the quantize+im2col → GEMM → scatter route
// it replaced: the same bits for every logical output, from the assembly on
// one lane and three and from the portable twins.
func TestQuantConvMatchesParentRouteBitwise(t *testing.T) {
	forEachQuantCase(t, func(qc quantCase) {
		want := quantConvParentRoute(qc.src, qc.weight, qc.bias, qc.cc.attrs(), qc.inputScale, qc.unsigned, qc.oh, qc.ow).Data()
		paths, src4 := quantPaths(qc.prepare()), poisonedNC4(qc.src)
		for _, run := range []struct {
			path  string
			lanes int
		}{{"active", 1}, {"active", 3}, {"portable", 2}} {
			got := runQuant(t, paths[run.path], src4, qc.outShape(), run.lanes).Data()
			if d := firstBitDiff(got, want); d >= 0 {
				t.Fatalf("%+v unsigned=%v scale=%v %s/%d lanes: element %d = %v (%#08x), parent route %v (%#08x)", qc.cc, qc.unsigned, qc.inputScale,
					run.path, run.lanes, d, got[d], math.Float32bits(got[d]), want[d], math.Float32bits(want[d]))
			}
		}
	})
}

// TestQuantizeSIMDMatchesScalarBitwise pins the vector quantizer to
// quantizeAct on every kind of float — random bit patterns, so NaNs of both
// signs, infinities and denormals among them, .5 ties and values around both
// clamps — under ordinary, huge, tiny and infinite inverse scales, with pad
// lanes that must come out 0 whatever they held.
func TestQuantizeSIMDMatchesScalarBitwise(t *testing.T) {
	if !matmul.HaveAVX2() {
		t.Skip("no AVX2 quantizer on this host")
	}
	r := tensor.NewRNG(7)
	src := make([]float32, 4*259)
	for i := range src {
		switch i % 4 {
		case 0:
			src[i] = math.Float32frombits(uint32(r.Uint64()))
		case 1:
			src[i] = float32(r.Intn(600)-300) + 0.5
		case 2:
			src[i] = r.Float32() * 300
		default:
			src[i] = []float32{0, float32(math.Copysign(0, -1)), nan32, -nan32, float32(math.Inf(1)), float32(math.Inf(-1)),
				math.SmallestNonzeroFloat32, 3e38, -3e38, 126.5, 127, -127.49, 253.5, 254, 1e-39}[r.Intn(15)]
		}
	}
	for _, inv := range []float32{1, 64, 127 / 3.7, 3e38, 1e-30, float32(math.Inf(1))} {
		for _, unsigned := range []bool{false, true} {
			for lanes := 1; lanes <= 4; lanes++ {
				for _, n := range []int{len(src), 32, 36, 28, 4 * 67} {
					got, want := make([]uint8, n), make([]uint8, n)
					for i := range got {
						got[i], want[i] = 0xa5, 0x5a
					}
					quantizeInto(got, src[:n], inv, unsigned, lanes, true)
					quantizeInto(want, src[:n], inv, unsigned, lanes, false)
					for i := range want {
						if got[i] != want[i] || (i%4 >= lanes && got[i] != 0) {
							t.Fatalf("inv=%v unsigned=%v lanes=%d n=%d: element %d (%v, %#08x) quantized to %d, scalar %d",
								inv, unsigned, lanes, n, i, src[i], math.Float32bits(src[i]), got[i], want[i])
						}
					}
				}
			}
		}
	}
	for _, n := range []int{8, 9, 64, 77} {
		if got, want := maxAbs32(src[:n], true), maxAbs32(src[:n], false); got != want {
			t.Fatalf("max-abs of %d: vector %v, scalar %v", n, got, want)
		}
	}
}

// FuzzInt8TapsNC4 drives kernel shape, stride, dilation, padding, channel
// counts, activation, quantization mode and raw float32 bit patterns through
// QuantConv: the active path must equal the portable twins bitwise, and,
// when every activation is finite, both must equal the im2col parent route.
func FuzzInt8TapsNC4(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), uint8(9), uint8(2), uint8(7), uint8(0x8e), uint8(0), uint8(3), uint64(1), []byte{})
	f.Fuzz(func(t *testing.T, khR, kwR, strideR, dilR, padR, icR, ocR, hwR, actR, modeR uint8, seed uint64, raw []byte) {
		kh, kw := int(khR)%7+1, int(kwR)%7+1
		stride, dil := int(strideR)%3+1, int(dilR)%2+1
		ic, oc := int(icR)%21+1, int(ocR)%40+1
		h, w := int(hwR)%13+1, int(hwR/13)%13+1
		cc := convCase{n: 2, ic: ic, h: h, w: w, oc: oc, kh: kh, kw: kw, sh: stride, sw: stride, dh: dil, dw: dil,
			ph: int(padR) % (kh*dil + 1), pw: int(padR/8) % (kw*dil + 1), relu: actR%3 == 1, relu6: actR%3 == 2}
		qc, ok := newQuantCase(cc, modeR&1 != 0, modeR&2 != 0, seed)
		if !ok {
			t.Skip()
		}
		finite := true
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			qc.src.Data()[(i*13)%len(qc.src.Data())] = v
			finite = finite && !math.IsInf(float64(v), 0) && v == v
		}
		paths, src4 := quantPaths(qc.prepare()), poisonedNC4(qc.src)
		ref := runQuant(t, paths["portable"], src4, qc.outShape(), 1).Data()
		if got := runQuant(t, paths["active"], src4, qc.outShape(), 2).Data(); firstBitDiff(got, ref) >= 0 {
			d := firstBitDiff(got, ref)
			t.Fatalf("%+v unsigned=%v scale=%v: element %d active %v, portable %v", cc, qc.unsigned, qc.inputScale, d, got[d], ref[d])
		}
		if finite {
			want := quantConvParentRoute(qc.src, qc.weight, qc.bias, cc.attrs(), qc.inputScale, qc.unsigned, qc.oh, qc.ow).Data()
			if d := firstBitDiff(ref, want); d >= 0 {
				t.Fatalf("%+v unsigned=%v scale=%v: element %d portable %v, parent route %v", cc, qc.unsigned, qc.inputScale, d, ref[d], want[d])
			}
		}
	})
}
