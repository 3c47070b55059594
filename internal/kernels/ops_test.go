package kernels

import (
	"fmt"
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

func TestPoolNC4MatchesRef(t *testing.T) {
	cases := []struct {
		name    string
		a       graph.PoolAttrs
		c, h, w int
	}{
		{"max2x2s2", graph.PoolAttrs{Type: graph.MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}, 8, 8, 8},
		{"max3x3s2p1", graph.PoolAttrs{Type: graph.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 6, 9, 9},
		{"avg3x3s1p1", graph.PoolAttrs{Type: graph.AvgPool, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 5, 7, 7},
		{"avg-incl-pad", graph.PoolAttrs{Type: graph.AvgPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, CountIncludePad: true}, 4, 9, 9},
		{"global-avg", graph.PoolAttrs{Type: graph.AvgPool, Global: true}, 10, 7, 7},
		{"global-max", graph.PoolAttrs{Type: graph.MaxPool, Global: true}, 3, 5, 5},
	}
	for _, tc := range cases {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/t%d", tc.name, threads), func(t *testing.T) {
				src := tensor.NewRandom(5, 1, 1, tc.c, tc.h, tc.w)
				var oh, ow int
				var err error
				if tc.a.Global {
					oh, ow = 1, 1
				} else {
					oh, ow, err = graph.PoolOutputSize(tc.h, tc.w, &tc.a)
					if err != nil {
						t.Fatal(err)
					}
				}
				want := tensor.New(1, tc.c, oh, ow)
				PoolRef(want, src, &tc.a)
				src4 := src.ToLayout(tensor.NC4HW4)
				got := tensor.NewWithLayout(tensor.NC4HW4, 1, tc.c, oh, ow)
				PoolNC4(got, src4, &tc.a, testPool(t, threads))
				if d := tensor.MaxAbsDiff(want, got); d > 1e-5 {
					t.Fatalf("max diff %g", d)
				}
			})
		}
	}
}

func TestActivationKinds(t *testing.T) {
	src := tensor.FromData([]float32{-3, -0.5, 0, 0.5, 3, 7}, 6)
	check := func(kind ActivationKind, want []float32) {
		dst := tensor.New(6)
		Activation(dst, src, kind, nil)
		for i := range want {
			if math.Abs(float64(dst.Data()[i]-want[i])) > 1e-5 {
				t.Errorf("kind %d elem %d: got %v want %v", kind, i, dst.Data()[i], want[i])
			}
		}
	}
	check(ActReLU, []float32{0, 0, 0, 0.5, 3, 7})
	check(ActReLU6, []float32{0, 0, 0, 0.5, 3, 6})
	sig := func(x float64) float32 { return float32(1 / (1 + math.Exp(-x))) }
	check(ActSigmoid, []float32{sig(-3), sig(-0.5), 0.5, sig(0.5), sig(3), sig(7)})
	th := func(x float64) float32 { return float32(math.Tanh(x)) }
	check(ActTanh, []float32{th(-3), th(-0.5), 0, th(0.5), th(3), th(7)})
}

func TestEltwiseOps(t *testing.T) {
	a := tensor.FromData([]float32{1, 2, 3, 4}, 4)
	b := tensor.FromData([]float32{5, -6, 7, -8}, 4)
	for _, tc := range []struct {
		typ  graph.EltwiseType
		want []float32
	}{
		{graph.EltSum, []float32{6, -4, 10, -4}},
		{graph.EltProd, []float32{5, -12, 21, -32}},
		{graph.EltMax, []float32{5, 2, 7, 4}},
		{graph.EltSub, []float32{-4, 8, -4, 12}},
	} {
		dst := tensor.New(4)
		Eltwise(dst, []*tensor.Tensor{a, b}, &graph.EltwiseAttrs{Type: tc.typ}, nil)
		for i := range tc.want {
			if dst.Data()[i] != tc.want[i] {
				t.Errorf("%v: got %v want %v", tc.typ, dst.Data(), tc.want)
				break
			}
		}
	}
	// Fused ReLU.
	dst := tensor.New(4)
	Eltwise(dst, []*tensor.Tensor{a, b}, &graph.EltwiseAttrs{Type: graph.EltSum, ReLU: true}, nil)
	want := []float32{6, 0, 10, 0}
	for i := range want {
		if dst.Data()[i] != want[i] {
			t.Fatalf("relu sum: got %v want %v", dst.Data(), want)
		}
	}
	// Three inputs.
	dst3 := tensor.New(4)
	Eltwise(dst3, []*tensor.Tensor{a, a, a}, &graph.EltwiseAttrs{Type: graph.EltSum}, testPool(t, 2))
	for i, v := range []float32{3, 6, 9, 12} {
		if dst3.Data()[i] != v {
			t.Fatalf("3-input sum: %v", dst3.Data())
		}
	}
}

func TestConcatChannelAligned(t *testing.T) {
	a := tensor.NewRandom(1, 1, 1, 4, 3, 3).ToLayout(tensor.NC4HW4)
	b := tensor.NewRandom(2, 1, 1, 8, 3, 3).ToLayout(tensor.NC4HW4)
	dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 12, 3, 3)
	ConcatChannel(dst, []*tensor.Tensor{a, b})
	for c := 0; c < 4; c++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				if dst.At(0, c, y, x) != a.At(0, c, y, x) {
					t.Fatal("first input corrupted")
				}
			}
		}
	}
	for c := 0; c < 8; c++ {
		if dst.At(0, 4+c, 1, 1) != b.At(0, c, 1, 1) {
			t.Fatal("second input corrupted")
		}
	}
}

func TestConcatChannelUnaligned(t *testing.T) {
	a := tensor.NewRandom(3, 1, 1, 3, 2, 2).ToLayout(tensor.NC4HW4)
	b := tensor.NewRandom(4, 1, 1, 5, 2, 2).ToLayout(tensor.NC4HW4)
	dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 8, 2, 2)
	ConcatChannel(dst, []*tensor.Tensor{a, b})
	for c := 0; c < 3; c++ {
		if dst.At(0, c, 0, 0) != a.At(0, c, 0, 0) {
			t.Fatal("unaligned concat first input")
		}
	}
	for c := 0; c < 5; c++ {
		if dst.At(0, 3+c, 1, 0) != b.At(0, c, 1, 0) {
			t.Fatal("unaligned concat second input")
		}
	}
}

func TestConcatAxisSpatial(t *testing.T) {
	a := tensor.NewRandom(5, 1, 1, 2, 2, 3)
	b := tensor.NewRandom(6, 1, 1, 2, 4, 3)
	dst := tensor.New(1, 2, 6, 3)
	ConcatAxis(dst, []*tensor.Tensor{a, b}, 2)
	if dst.At(0, 1, 0, 0) != a.At(0, 1, 0, 0) || dst.At(0, 1, 2, 1) != b.At(0, 1, 0, 1) {
		t.Fatal("axis-2 concat wrong")
	}
}

func TestScaleNC4MatchesRef(t *testing.T) {
	src := tensor.NewRandom(7, 1, 1, 6, 4, 4)
	scale := []float32{1, 2, 3, 4, 5, 6}
	shift := []float32{0.5, -0.5, 0, 1, -1, 2}
	want := tensor.New(1, 6, 4, 4)
	ScaleRef(want, src, tensor.FromData(scale, 6), tensor.FromData(shift, 6))
	src4 := src.ToLayout(tensor.NC4HW4)
	got := tensor.NewWithLayout(tensor.NC4HW4, 1, 6, 4, 4)
	ScaleNC4(got, src4, scale, shift, testPool(t, 2))
	if d := tensor.MaxAbsDiff(want, got); d > 1e-5 {
		t.Fatalf("max diff %g", d)
	}
}

func TestFoldBatchNormMatchesRef(t *testing.T) {
	c := 5
	r := tensor.NewRNG(9)
	gamma := make([]float32, c)
	beta := make([]float32, c)
	mean := make([]float32, c)
	variance := make([]float32, c)
	for i := 0; i < c; i++ {
		gamma[i] = r.Float32() + 1.5
		beta[i] = r.Float32()
		mean[i] = r.Float32()
		variance[i] = r.Float32()*0.5 + 1
	}
	src := tensor.NewRandom(10, 1, 1, c, 3, 3)
	want := tensor.New(1, c, 3, 3)
	BatchNormRef(want, src, tensor.FromData(gamma, c), tensor.FromData(beta, c),
		tensor.FromData(mean, c), tensor.FromData(variance, c), 1e-5)

	scale, shift := FoldBatchNorm(gamma, beta, mean, variance, 1e-5)
	src4 := src.ToLayout(tensor.NC4HW4)
	got := tensor.NewWithLayout(tensor.NC4HW4, 1, c, 3, 3)
	ScaleNC4(got, src4, scale, shift, nil)
	if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
		t.Fatalf("folded BN differs from reference by %g", d)
	}
}

func TestInnerProductMatchesRef(t *testing.T) {
	batch, features, out := 3, 20, 7
	src := tensor.NewRandom(11, 1, batch, features)
	weight := tensor.NewRandom(12, 1, out, features)
	bias := tensor.NewRandom(13, 1, out)
	a := &graph.InnerProductAttrs{OutputCount: out}
	want := tensor.New(batch, out)
	InnerProductRef(want, src, weight, bias, a)
	ip := PrepareInnerProduct(weight, bias, a)
	got := tensor.New(batch, out)
	ip.Run(got, src, testPool(t, 2))
	if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
	// With fused ReLU.
	aR := &graph.InnerProductAttrs{OutputCount: out, ReLU: true}
	wantR := tensor.New(batch, out)
	InnerProductRef(wantR, src, weight, bias, aR)
	ipR := PrepareInnerProduct(weight, bias, aR)
	gotR := tensor.New(batch, out)
	ipR.Run(gotR, src, nil)
	if d := tensor.MaxAbsDiff(wantR, gotR); d > 1e-4 {
		t.Fatalf("relu max diff %g", d)
	}
}

func TestSoftmaxRef(t *testing.T) {
	src := tensor.FromData([]float32{1, 2, 3, 4}, 1, 4)
	dst := tensor.New(1, 4)
	SoftmaxRef(dst, src, 1)
	var sum float64
	for _, v := range dst.Data() {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum %v", sum)
	}
	if !(dst.Data()[3] > dst.Data()[2] && dst.Data()[2] > dst.Data()[1]) {
		t.Fatal("softmax not monotone")
	}
	// Large inputs must not overflow (max-subtraction).
	big := tensor.FromData([]float32{1000, 1001}, 1, 2)
	dstBig := tensor.New(1, 2)
	SoftmaxRef(dstBig, big, 1)
	if math.IsNaN(float64(dstBig.Data()[0])) || math.IsInf(float64(dstBig.Data()[1]), 0) {
		t.Fatal("softmax overflow")
	}
}

func TestSoftmaxAxis2(t *testing.T) {
	src := tensor.NewRandom(14, 1, 2, 3, 4)
	dst := tensor.New(2, 3, 4)
	SoftmaxRef(dst, src, 1)
	// Sum along axis 1 must be 1 for each (outer, inner).
	d := dst.Data()
	for o := 0; o < 2; o++ {
		for in := 0; in < 4; in++ {
			var sum float64
			for i := 0; i < 3; i++ {
				sum += float64(d[o*12+i*4+in])
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("axis softmax sum %v", sum)
			}
		}
	}
}

func TestPaddingNC4(t *testing.T) {
	src := tensor.NewRandom(15, 1, 1, 5, 3, 3)
	a := &graph.PaddingAttrs{Top: 1, Bottom: 2, Left: 3, Right: 1}
	want := tensor.New(1, 5, 6, 7)
	for c := 0; c < 5; c++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				want.Set(0, c, y+1, x+3, src.At(0, c, y, x))
			}
		}
	}
	src4 := src.ToLayout(tensor.NC4HW4)
	got := tensor.NewWithLayout(tensor.NC4HW4, 1, 5, 6, 7)
	PaddingNC4(got, src4, a, testPool(t, 2))
	if d := tensor.MaxAbsDiff(want, got); d > 0 {
		t.Fatalf("padding diff %g", d)
	}
}

// ParallelFor splits [0, n) into deterministic chunks and runs fn(start,
// end) over the pool's lanes. A nil pool (or one lane, or n ≤ 1) runs
// inline, so single-threaded configurations pay nothing.
func ParallelFor(p *sched.Pool, n int, fn func(start, end int)) {
	ParallelForWorker(p, n, func(_, start, end int) { fn(start, end) })
}

// ParallelForWorker is ParallelFor with a dense worker index (0 ≤ worker <
// p.Lanes()) passed to fn, for code that keeps a private workspace slot per
// lane.
func ParallelForWorker(p *sched.Pool, n int, fn func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if p.Lanes() <= 1 || n == 1 {
		fn(0, 0, n)
		return
	}
	p.Run(n, sched.Chunk(n, p.Lanes(), 1), funcTask(fn))
}

// funcTask adapts a closure to sched.Task.
type funcTask func(worker, start, end int)

func (f funcTask) RunChunk(worker, start, end int) { f(worker, start, end) }

func TestParallelForCoverage(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7, 100} {
		n := 37
		seen := make([]int32, n)
		var hits [100]bool
		pool := sched.New(threads)
		ParallelForWorker(pool, n, func(w, s, e int) {
			hits[w] = true
			for i := s; i < e; i++ {
				seen[i]++
			}
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, v)
			}
		}
		// Worker indices must be dense and unique-per-chunk.
		workers := 0
		for _, h := range hits {
			if h {
				workers++
			}
		}
		wantW := threads
		if wantW > n {
			wantW = n
		}
		if workers > wantW {
			t.Fatalf("threads=%d: %d workers used", threads, workers)
		}
	}
	// Zero-length range must not call fn.
	called := false
	ParallelFor(sched.New(4), 0, func(s, e int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// poolCheckedLoop is PoolOp.RunChunk as it was before windows were clipped
// once: every tap tests its bounds, max and average decided per tap.
func poolCheckedLoop(d, s []float32, a *graph.PoolAttrs, items, H, W, OH, OW, kh, kw, sh, sw, ph, pw int) {
	for item := 0; item < items; item++ {
		for oy := 0; oy < OH; oy++ {
			for ox := 0; ox < OW; ox++ {
				inf := float32(math.Inf(-1))
				m := [4]float32{inf, inf, inf, inf}
				var sum [4]float64
				count := 0
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*sh-ph+ky, ox*sw-pw+kx
						if iy < 0 || iy >= H || ix < 0 || ix >= W {
							continue
						}
						for l := 0; l < 4; l++ {
							v := s[(item*H*W+iy*W+ix)*4+l]
							if v > m[l] {
								m[l] = v
							}
							sum[l] += float64(v)
						}
						count++
					}
				}
				div := float64(count)
				if a.CountIncludePad {
					div = float64(kh * kw)
				}
				if div == 0 {
					div = 1
				}
				for l := 0; l < 4; l++ {
					if a.Type == graph.MaxPool {
						d[(item*OH*OW+oy*OW+ox)*4+l] = m[l]
					} else {
						d[(item*OH*OW+oy*OW+ox)*4+l] = float32(sum[l] / div)
					}
				}
			}
		}
	}
}

// TestPoolMatchesCheckedLoopBitwise pins the clipped-window pooling loops to
// the per-tap-checked loop they replaced, physical element by physical
// element (pad lanes are pooled too), on inputs with NaN, both zeros, ±Inf
// and runs of equal values, with padding wider than the kernel's reach.
func TestPoolMatchesCheckedLoopBitwise(t *testing.T) {
	seed := uint64(0)
	for _, typ := range []graph.PoolType{graph.MaxPool, graph.AvgPool} {
		for _, k := range [][2]int{{2, 2}, {3, 3}, {3, 2}, {5, 5}} {
			for _, stride := range []int{1, 2, 3} {
				for _, pad := range []int{0, 1, k[0] / 2} {
					for _, inclPad := range []bool{false, true} {
						seed++
						a := &graph.PoolAttrs{Type: typ, KernelH: k[0], KernelW: k[1], StrideH: stride, StrideW: stride,
							PadH: pad, PadW: pad, CountIncludePad: inclPad}
						h, w := 7+int(seed%5), 5+int(seed%7)
						oh, ow, err := graph.PoolOutputSize(h, w, a)
						if err != nil || oh < 1 || ow < 1 {
							continue
						}
						src := tensor.NewWithLayout(tensor.NC4HW4, 2, 6, h, w)
						tensor.FillRandom(src, seed, 1)
						r := tensor.NewRNG(seed)
						sd := src.Data()
						for _, v := range []float32{nan32, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))} {
							for i := 0; i < 6; i++ {
								sd[r.Intn(len(sd))] = v
							}
						}
						for at, i := r.Intn(len(sd)-40), 0; i < 40; i++ {
							sd[at+i] = 0.5
						}
						got := nanNC4(2, 6, oh, ow)
						NewPoolOp(got, src, a).Run(testPool(t, 3))
						want := make([]float32, len(got.Data()))
						ph, pw := graph.PoolPadding(h, w, a)
						poolCheckedLoop(want, sd, a, 2*2, h, w, oh, ow, k[0], k[1], stride, stride, ph, pw)
						if d := firstBitDiff(got.Data(), want); d >= 0 {
							t.Fatalf("%+v on %dx%d: physical element %d = %v (%#08x), checked loop %v (%#08x)", *a, h, w, d,
								got.Data()[d], math.Float32bits(got.Data()[d]), want[d], math.Float32bits(want[d]))
						}
					}
				}
			}
		}
	}
}

// poolSIMDCase is one pool the row-kernel pins run, over batch 2.
type poolSIMDCase struct {
	a       graph.PoolAttrs
	c, h, w int
}

// poolSIMDCases lists the pools of type base the row kernels are pinned on:
// global pools, one over enough channel blocks that a chunk's items make runs
// of four and more; and kernels 2, 3 and 5 at strides 1, 2 and 3, each
// unpadded (ceil-rounded outputs, whose last window clips), with padding 1,
// and with padding 4 (border outputs see padding only), at every width up to
// k + 4·stride + 3. It fails t unless a row's run of unclipped windows takes
// every length mod 4 and length 0, and last windows clip both unpadded and
// padded.
func poolSIMDCases(t *testing.T, base graph.PoolAttrs) []poolSIMDCase {
	t.Helper()
	global := base
	global.Global = true
	cases := []poolSIMDCase{{global, 7, 6, 9}, {global, 7, 13, 13}, {global, 37, 5, 3}}
	runs := map[int]bool{} // run length mod 4 for runs ≥ 1, and -1 for length 0
	var clipped [2]bool    // a last window clips: [0] unpadded, [1] padded
	for _, k := range []int{2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 4} {
				a := base
				a.KernelH, a.KernelW, a.StrideH, a.StrideW, a.PadH, a.PadW = k, k, stride, stride, pad, pad
				for w := 1; w <= k+4*stride+3; w++ {
					h := 3 + (w+k)%5
					_, ow, err := graph.PoolOutputSize(h, w, &a)
					if err != nil {
						continue
					}
					run := 0
					for ox := range ow {
						if x := ox*stride - pad; x >= 0 && x+k <= w {
							run++
						}
					}
					if run == 0 {
						runs[-1] = true
					} else {
						runs[run%4] = true
					}
					if (ow-1)*stride-pad+k > w {
						clipped[min(pad, 1)] = true
					}
					cases = append(cases, poolSIMDCase{a, 7, h, w})
				}
			}
		}
	}
	if len(runs) != 5 || !clipped[0] || !clipped[1] {
		t.Fatalf("cases miss a run length or a clipped last window: runs %v, clipped %v", runs, clipped)
	}
	return cases
}

// checkPoolSIMDBitwise runs every case through the row kernels and through
// their Go oracles (simd off), on one lane and on three, and fails t at the
// first physical element whose bits differ (firstBitDiff). Inputs
// are random with one element in six drawn from specials, and then — dense —
// with every element drawn from denseSpecials; destinations start as NaN.
func checkPoolSIMDBitwise(t *testing.T, cases []poolSIMDCase, specials, denseSpecials []float32) {
	t.Helper()
	pools := []*sched.Pool{testPool(t, 1), testPool(t, 3)}
	for i, c := range cases {
		for _, dense := range []bool{false, true} {
			oh, ow := 1, 1
			if !c.a.Global {
				var err error
				if oh, ow, err = graph.PoolOutputSize(c.h, c.w, &c.a); err != nil {
					t.Fatal(err)
				}
			}
			src := tensor.NewWithLayout(tensor.NC4HW4, 2, c.c, c.h, c.w)
			tensor.FillRandom(src, uint64(i+1), 1)
			sd, r := src.Data(), tensor.NewRNG(uint64(i+100))
			for j := range sd {
				if dense {
					sd[j] = denseSpecials[r.Intn(len(denseSpecials))]
				} else if r.Intn(6) == 0 {
					sd[j] = specials[r.Intn(len(specials))]
				}
			}
			for _, p := range pools {
				simd, portable := nanNC4(2, c.c, oh, ow), nanNC4(2, c.c, oh, ow)
				NewPoolOp(simd, src, &c.a).Run(p)
				op := NewPoolOp(portable, src, &c.a)
				op.simd = false
				op.Run(p)
				if d := firstBitDiff(simd.Data(), portable.Data()); d >= 0 {
					got, want := simd.Data()[d], portable.Data()[d]
					t.Fatalf("%+v on %dx%dx%d (dense %v, %d lanes): physical element %d = %v (%#08x), oracle %v (%#08x)",
						c.a, c.c, c.h, c.w, dense, p.Lanes(), d, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

// TestPoolMaxSIMDBitwise pins poolMaxRowNC4 to its Go oracle poolMax on
// poolSIMDCases, over inputs salted with NaN, both zeros in both orders,
// ±Inf and denormals; dense inputs are nothing but those, so windows of only
// NaN, only zeros and runs of equal values occur.
func TestPoolMaxSIMDBitwise(t *testing.T) {
	if !matmul.HaveAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{nan32, 0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45, -1e-45, 1e-39}
	checkPoolSIMDBitwise(t, poolSIMDCases(t, graph.PoolAttrs{Type: graph.MaxPool}), specials, specials)
}

// pool3x3s2Kinds are the sources of TestPoolMax3x3s2SIMDMatchesPoolMaxBitwise:
// each fills a plane element by element from its hard values.
var pool3x3s2Kinds = []struct {
	name string
	vals []float32
}{
	{"NaN payloads among ordinary values", []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345), math.Float32frombits(0x7f800003),
		math.Float32frombits(0xff80beef), 1.5, -2.25, 0.75, 3, -1}},
	{"all-NaN windows", []float32{math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc0beef), math.Float32frombits(0x7f800003)}},
	{"-Inf and NaN", []float32{-inf32, -inf32, nan32, -3e38}},
	{"both zeros", []float32{0, negZero32}},
	{"denormals", []float32{1e-45, -1e-45, 1e-39, -1e-39, math.Float32frombits(0x007fffff), 0, negZero32}},
	{"±3e38", []float32{3e38, -3e38, math.MaxFloat32, -math.MaxFloat32, inf32}},
	{"ties", []float32{1, 1, -1}},
}

// TestPoolMax3x3s2SIMDMatchesPoolMaxBitwise holds poolMax3x3s2NC4, the
// separable 3×3/s2 max pool, to poolMax bit for bit: source widths 3–40 odd
// and even (every length of the last, masked strip), heights 3–8, one and
// three channel packs, sources drawn from pool3x3s2Kinds — NaN payloads of
// both signs and windows of nothing else, -Inf, both zeros in both orders,
// denormals, ±3e38 and ties. The kernel alone must leave a NaN guard after
// its output untouched; PoolOp on one lane and on three must take it.
func TestPoolMax3x3s2SIMDMatchesPoolMaxBitwise(t *testing.T) {
	t.Run("avx512", func(t *testing.T) {
		if !matmul.HaveAVX512() {
			t.Skip("this host has no avx512 kernels")
		}
		a := graph.PoolAttrs{Type: graph.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}
		pools := []*sched.Pool{testPool(t, 1), testPool(t, 3)}
		seed := uint64(0)
		for _, kind := range pool3x3s2Kinds {
			for w := 3; w <= 40; w++ {
				for _, packs := range []int{1, 3} {
					seed++
					h := 3 + int(seed%6)
					oh, ow := (h-3)/2+1, (w-3)/2+1
					src := tensor.NewWithLayout(tensor.NC4HW4, 1, 4*packs, h, w)
					sd, r := src.Data(), tensor.NewRNG(seed)
					for i := range sd {
						sd[i] = kind.vals[r.Intn(len(kind.vals))]
					}
					plane, oplane := h*w*4, oh*ow*4
					want := make([]float32, packs*oplane)
					for item := 0; item < packs; item++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								at := item*oplane + (oy*ow+ox)*4
								poolMax(want[at:at+4], sd[item*plane:], w, 2*oy, 2*oy+3, 2*ox, 2*ox+3)
							}
						}
					}
					for item := 0; item < packs; item++ {
						got := make([]float32, oplane+16)
						for i := range got {
							got[i] = nan32
						}
						poolMax3x3s2NC4(&got[0], &sd[item*plane], oh, ow, w)
						if d := exactBitDiff(got, want[item*oplane:(item+1)*oplane]); d >= 0 {
							t.Fatalf("%s, %dx%d, pack %d: pixel %d lane %d = %#08x, poolMax %#08x", kind.name, h, w, item,
								d/4, d%4, math.Float32bits(got[d]), math.Float32bits(want[item*oplane+d]))
						}
						for i, v := range got[oplane:] {
							if math.Float32bits(v) != math.Float32bits(nan32) {
								t.Fatalf("%s, %dx%d: wrote %d floats past its output", kind.name, h, w, i+1)
							}
						}
					}
					for _, p := range pools {
						dst := nanNC4(1, 4*packs, oh, ow)
						op := NewPoolOp(dst, src, &a)
						op.Run(p)
						if !op.sep {
							t.Fatalf("%dx%d: PoolOp did not take poolMax3x3s2NC4", h, w)
						}
						if d := exactBitDiff(dst.Data(), want); d >= 0 {
							t.Fatalf("%s, %dx%d, %d lanes: element %d = %#08x, poolMax %#08x", kind.name, h, w, p.Lanes(),
								d, math.Float32bits(dst.Data()[d]), math.Float32bits(want[d]))
						}
					}
				}
			}
		}
	})
}

// TestPoolAvgSIMDBitwise pins poolAvgRowNC4 to its Go oracle poolAvg on
// poolSIMDCases, with CountIncludePad both ways. Dense inputs are values
// near ±3e38 beside denormals, zeros and ±1, so a window's float64 sum
// cancels and its order shows in the result; sparse ones add NaN and ±Inf.
func TestPoolAvgSIMDBitwise(t *testing.T) {
	if !matmul.HaveAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	finite := []float32{3e38, -3e38, math.MaxFloat32, -math.MaxFloat32, 1e-45, -1e-45, 1e-39, -1e-39,
		0, float32(math.Copysign(0, -1)), 1, -1}
	specials := append([]float32{nan32, float32(math.Inf(1)), float32(math.Inf(-1))}, finite...)
	for _, incl := range []bool{false, true} {
		cases := poolSIMDCases(t, graph.PoolAttrs{Type: graph.AvgPool, CountIncludePad: incl})
		checkPoolSIMDBitwise(t, cases, specials, finite)
	}
}
