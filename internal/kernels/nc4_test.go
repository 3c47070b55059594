package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// Tests of the NC4HW4-native kernels: Conv1x1 on matmul.PackedB.MulNC4Into
// and the AVX2 depthwise interior kernel. Both must give the bits of the
// code they replaced, on arena-like buffers whose pad lanes hold garbage.

var nan32 = float32(math.NaN())

// specialActivations overwrites a few elements of t with the values that
// separate "bitwise" from "close": zeros of both signs, denormals and
// ±big (3e38 makes products overflow to ±Inf and sums to NaN).
func specialActivations(t *tensor.Tensor, seed uint64, big float32) {
	r := tensor.NewRNG(seed)
	d := t.Data()
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), 1e-39, big, -big, big} {
		d[r.Intn(len(d))] = v
	}
	// A run of zeros, as after a ReLU.
	at := r.Intn(len(d))
	for i := at; i < at+9 && i < len(d); i++ {
		d[i] = 0
	}
}

// poisonedNC4 returns src (NCHW) as an NC4HW4 tensor whose pad lanes — the
// bytes an arena recycles from some earlier tensor — are NaN.
func poisonedNC4(src *tensor.Tensor) *tensor.Tensor {
	p := tensor.NewWithLayout(tensor.NC4HW4, src.Shape()...)
	d := p.Data()
	for i := range d {
		d[i] = nan32
	}
	for n := 0; n < src.Batch(); n++ {
		for c := 0; c < src.Channels(); c++ {
			for y := 0; y < src.Height(); y++ {
				for x := 0; x < src.Width(); x++ {
					p.Set(n, c, y, x, src.At(n, c, y, x))
				}
			}
		}
	}
	return p
}

// nanNC4 returns an NC4HW4 destination with NaN in every physical element,
// so an output the kernel fails to write cannot pass for a value.
func nanNC4(shape ...int) *tensor.Tensor {
	t := tensor.NewWithLayout(tensor.NC4HW4, shape...)
	d := t.Data()
	for i := range d {
		d[i] = nan32
	}
	return t
}

// firstBitDiff compares logical elements bit for bit; two NaNs are equal
// whatever their payloads (see matmul's sameBits).
func firstBitDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			return i
		}
	}
	return -1
}

// conv1x1ParentRoute is the 1×1 convolution as the engine ran it before the
// NC4HW4 kernel: unpack NC4HW4 → [pixels, ic] rows (applying the stride),
// PackedB.MulInto, then bias + activation while repacking → NC4HW4 (NCHW
// here; only logical elements are compared).
func conv1x1ParentRoute(src, weight, bias *tensor.Tensor, a *graph.Conv2DAttrs, oh, ow int) *tensor.Tensor {
	n, ic, oc := src.Batch(), src.Channels(), weight.Dim(0)
	sh, sw := strideOr1(a.StrideH), strideOr1(a.StrideW)
	px := n * oh * ow
	rows := make([]float32, px*ic)
	for b := 0; b < n; b++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for c := 0; c < ic; c++ {
					rows[((b*oh+y)*ow+x)*ic+c] = src.At(b, c, y*sh, x*sw)
				}
			}
		}
	}
	wT := make([]float32, ic*oc)
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			wT[i*oc+o] = weight.Data()[o*ic+i]
		}
	}
	prod := make([]float32, px*oc)
	matmul.PackB(wT, ic, oc).MulInto(prod, rows, px)
	dst := tensor.New(n, oc, oh, ow)
	for b := 0; b < n; b++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for o := 0; o < oc; o++ {
					v := prod[((b*oh+y)*ow+x)*oc+o] + bias.Data()[o]
					if a.ReLU6 {
						v = relu6(v)
					} else if a.ReLU {
						v = relu(v)
					}
					dst.Set(b, o, y, x, v)
				}
			}
		}
	}
	return dst
}

// skipAbsentISAs reports each micro-kernel level this host lacks as a
// skipped subtest of that name, so a level a suite could not reach shows in
// the log instead of passing silently.
func skipAbsentISAs(t *testing.T) {
	for _, isa := range []string{"portable", "avx2", "avx512"}[len(matmul.ISAs()):] {
		t.Run(isa, func(t *testing.T) { t.Skipf("this host has no %s micro-kernel", isa) })
	}
}

// conv1x1Paths are the implementations of one prepared Conv1x1, by the name
// of the micro-kernel level: every one the host has, "portable" among them.
func conv1x1Paths(c *Conv1x1) map[string]*Conv1x1 {
	paths := map[string]*Conv1x1{}
	for _, isa := range matmul.ISAs() {
		view := *c
		view.packed = c.packed.WithISA(isa)
		paths[isa] = &view
	}
	return paths
}

// TestConv1x1MatchesParentRouteBitwise is the differential test of the
// single-pass kernel against the route it replaced, with NaN-poisoned source
// pad lanes and a NaN-prefilled destination: every logical output must be
// written and carry the old bits, on one lane and on three.
func TestConv1x1MatchesParentRouteBitwise(t *testing.T) {
	skipAbsentISAs(t)
	seed := uint64(0)
	for _, ic := range []int{3, 7, 16, 130} {
		for _, oc := range []int{6, 9, 16, 72, 140} {
			for _, stride := range []int{1, 2} {
				seed++
				cc := convCase{n: 3, ic: ic, h: 7 * stride, w: 7*stride - (stride - 1), oc: oc, kh: 1, kw: 1, sh: stride, sw: stride,
					relu: seed%3 == 1, relu6: seed%3 == 2}
				a := cc.attrs()
				src := tensor.NewRandom(seed, 1, cc.n, ic, cc.h, cc.w)
				specialActivations(src, seed, 3e38)
				weight := tensor.NewRandom(seed+100, 1, oc, ic, 1, 1)
				bias := tensor.NewRandom(seed+200, 1, oc)
				oh, ow, err := graph.ConvOutputSize(cc.h, cc.w, a)
				if err != nil || oh != 7 || ow != 7 {
					t.Fatalf("case %+v: output %dx%d, %v", cc, oh, ow, err)
				}
				want := conv1x1ParentRoute(src, weight, bias, a, oh, ow)
				src4 := poisonedNC4(src)
				for name, c := range conv1x1Paths(PrepareConv1x1(weight, bias, a)) {
					for _, lanes := range []int{1, 3} {
						dst4 := nanNC4(want.Shape()...)
						c.Run(dst4, src4, testPool(t, lanes))
						got := dst4.ToLayout(tensor.NCHW)
						if d := firstBitDiff(got.Data(), want.Data()); d >= 0 {
							t.Fatalf("ic=%d oc=%d stride=%d relu=%v relu6=%v %s/%d lanes: element %d = %v (%#08x), parent route %v (%#08x)",
								ic, oc, stride, cc.relu, cc.relu6, name, lanes, d, got.Data()[d], math.Float32bits(got.Data()[d]),
								want.Data()[d], math.Float32bits(want.Data()[d]))
						}
					}
				}
			}
		}
	}
}

// depthwisePaths are the implementations of one prepared DepthwiseConv: the
// active one and the scalar loop alone (the oracle). The copy is taken before
// the first Run, which is when the kernels' cut of the output is made.
func depthwisePaths(dc *DepthwiseConv) map[string]*DepthwiseConv {
	scalar := *dc
	scalar.simd = false
	return map[string]*DepthwiseConv{"active": dc, "scalar": &scalar}
}

// TestDepthwiseSIMDMatchesScalarBitwise is the differential test of the
// depthwise assembly kernels — the interior rectangle and the runs of
// in-image taps around it, which also take the shapes the first does not
// cover (5×5, dilated, no interior column): every pixel must have the scalar
// loop's bits. Sources carry NaN pad lanes and destinations start as NaN
// (inputs are finite and small, so a NaN output is one that was never
// written); c%4 != 0 throughout.
func TestDepthwiseSIMDMatchesScalarBitwise(t *testing.T) {
	seed := uint64(0)
	for _, k := range []int{3, 5} {
		for _, stride := range []int{1, 2} {
			for _, dil := range []int{1, 2} {
				// The last five are all border: no pixel has its whole window
				// in the image on at least one axis.
				for _, hw := range [][2]int{{9, 12}, {7, 7}, {5, 2}, {3, 3}, {4, 1}, {14, 15}, {1, 1}, {1, 7}, {7, 2}, {2, 3}, {3, 7}} {
					for _, pad := range []int{0, k / 2 * dil, k/2*dil + 1} {
						seed++
						c := []int{6, 7, 13}[seed%3]
						cc := convCase{n: 2, ic: c, h: hw[0], w: hw[1], oc: c, kh: k, kw: k, sh: stride, sw: stride,
							dh: dil, dw: dil, ph: pad, pw: pad, group: c, relu: seed%3 == 1, relu6: seed%3 == 2}
						a := cc.attrs()
						oh, ow, err := graph.ConvOutputSize(cc.h, cc.w, a)
						if err != nil || oh < 1 || ow < 1 {
							continue
						}
						src := tensor.NewRandom(seed, 4, cc.n, c, cc.h, cc.w)
						specialActivations(src, seed, 100)
						weight := tensor.NewRandom(seed+100, 1, c, 1, k, k)
						bias := tensor.NewRandom(seed+200, 1, c)
						// A -0 bias under all-zero windows pins relu(-0) = -0.
						bias.Data()[0] = float32(math.Copysign(0, -1))
						// The reference is the scalar loop over zero pad lanes.
						paths := depthwisePaths(PrepareDepthwise(weight, bias, a))
						ref := tensor.NewWithLayout(tensor.NC4HW4, cc.n, c, oh, ow)
						paths["scalar"].Run(ref, src.ToLayout(tensor.NC4HW4), testPool(t, 1))
						want := ref.ToLayout(tensor.NCHW).Data()
						src4 := poisonedNC4(src)
						for name, dc := range paths {
							for _, lanes := range []int{1, 3} {
								dst4 := nanNC4(cc.n, c, oh, ow)
								dc.Run(dst4, src4, testPool(t, lanes))
								got := dst4.ToLayout(tensor.NCHW).Data()
								if d := firstBitDiff(got, want); d >= 0 {
									t.Fatalf("%+v %s/%d lanes: element %d = %v (%#08x), scalar %v (%#08x)", cc, name, lanes, d,
										got[d], math.Float32bits(got[d]), want[d], math.Float32bits(want[d]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDepthwiseClampSpecials pins the VMAXPS/VMINPS operand order of the
// depthwise kernels' fused activation, on an all-interior image (pad 0:
// depthwise3x3) and on one with a border (pad 1: depthwiseRuns takes the
// border, whose pixels have 4 or 6 taps): a NaN source gives NaN through
// relu and relu6, and a -0 bias over zero sources (every product -0 or
// skipped) stays -0 through relu — `v < 0` is false for both, so the scalar
// relu returns them unchanged.
func TestDepthwiseClampSpecials(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, act := range []string{"none", "relu", "relu6"} {
		for _, pad := range []int{0, 1} {
			cc := convCase{n: 1, ic: 4, h: 5, w: 6, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, ph: pad, pw: pad, group: 4, relu: act == "relu", relu6: act == "relu6"}
			a := cc.attrs()
			oh, ow := 3+2*pad, 4+2*pad
			src := tensor.New(1, 4, 5, 6) // channel 0: zeros; 1: NaN; 2: large; 3: negative
			weight := tensor.New(4, 1, 3, 3)
			bias := tensor.New(4)
			for i := 0; i < 30; i++ {
				src.Data()[30+i], src.Data()[60+i], src.Data()[90+i] = nan32, 5, -1
			}
			for i := range weight.Data() {
				weight.Data()[i] = 1
			}
			for i := 0; i < 9; i++ {
				weight.Data()[i] = -1 // 0·-1 = -0, and -0 + -0 = -0
			}
			bias.Data()[0] = negZero
			for name, dc := range depthwisePaths(PrepareDepthwise(weight, bias, a)) {
				dst4 := nanNC4(1, 4, oh, ow)
				dc.Run(dst4, src.ToLayout(tensor.NC4HW4), testPool(t, 1))
				got := dst4.ToLayout(tensor.NCHW)
				for i := 0; i < oh*ow; i++ {
					// The pixel's in-image taps: 9 inside, 6 on an edge, 4 in a corner.
					ky0, ky := tapRange(i/ow-pad, 1, 3, 5)
					kx0, kx := tapRange(i%ow-pad, 1, 3, 6)
					taps := float32((ky - ky0) * (kx - kx0))
					want := [4]float32{negZero, nan32, 5 * taps, -taps}
					if act != "none" {
						want[3] = 0
					}
					if act == "relu6" {
						want[2] = 6
					}
					for c := 0; c < 4; c++ {
						g := got.Data()[c*oh*ow+i]
						if math.Float32bits(g) != math.Float32bits(want[c]) && !(g != g && want[c] != want[c]) {
							t.Fatalf("%s/%s pad %d channel %d pixel %d: got %v (%#08x), want %v (%#08x)", act, name, pad, c, i,
								g, math.Float32bits(g), want[c], math.Float32bits(want[c]))
						}
					}
				}
			}
		}
	}
}

// FuzzConv1x1NC4 drives shapes, stride, activation and raw float32 bit
// patterns through the single-pass Conv1x1 (active and portable) and the
// route it replaced, which must agree bitwise; the raw patterns go into the
// activations, the weights and the bias alike.
func FuzzConv1x1NC4(f *testing.F) {
	f.Add(uint8(7), uint8(9), uint8(7), uint8(1), uint8(0), uint64(1), []byte{0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add(uint8(16), uint8(16), uint8(4), uint8(0), uint8(1), uint64(2), []byte{})
	f.Add(uint8(130), uint8(72), uint8(5), uint8(1), uint8(2), uint64(3), []byte{0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, icR, ocR, hwR, strideR, actR uint8, seed uint64, raw []byte) {
		ic, oc := int(icR)%140+1, int(ocR)%150+1
		stride := int(strideR)%2 + 1
		out := int(hwR)%7 + 1
		cc := convCase{n: 2, ic: ic, h: (out-1)*stride + 1, w: out * stride, oc: oc, kh: 1, kw: 1, sh: stride, sw: stride,
			relu: actR%3 == 1, relu6: actR%3 == 2}
		a := cc.attrs()
		src := tensor.NewRandom(seed, 1, cc.n, ic, cc.h, cc.w)
		weight := tensor.NewRandom(seed+1, 1, oc, ic, 1, 1)
		bias := tensor.NewRandom(seed+2, 1, oc)
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			src.Data()[(i*13)%len(src.Data())] = v
			weight.Data()[(i*29)%len(weight.Data())] = v
			bias.Data()[(i*7)%oc] = v
		}
		oh, ow, err := graph.ConvOutputSize(cc.h, cc.w, a)
		if err != nil {
			t.Skip()
		}
		want := conv1x1ParentRoute(src, weight, bias, a, oh, ow)
		src4 := poisonedNC4(src)
		for name, c := range conv1x1Paths(PrepareConv1x1(weight, bias, a)) {
			dst4 := nanNC4(want.Shape()...)
			c.Run(dst4, src4, testPool(t, 2))
			got := dst4.ToLayout(tensor.NCHW)
			if d := firstBitDiff(got.Data(), want.Data()); d >= 0 {
				t.Fatalf("%s: %s element %d = %v, parent route %v", fmt.Sprintf("%+v", cc), name, d, got.Data()[d], want.Data()[d])
			}
		}
	})
}
