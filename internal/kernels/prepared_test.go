package kernels

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
	"mnn/internal/winograd"
)

// stagedPack is how the kernels packed a [n][c][taps] weight before they
// read it in its own layout: transpose into a (tap, channel)-major staging
// matrix, then PackB.
func stagedPack(w []float32, n, c, taps int) *matmul.PackedB {
	wT := make([]float32, taps*c*n)
	for o := 0; o < n; o++ {
		for i := 0; i < c; i++ {
			for t := 0; t < taps; t++ {
				wT[(t*c+i)*n+o] = w[(o*c+i)*taps+t]
			}
		}
	}
	return matmul.PackB(wT, taps*c, n)
}

// stagedPackInt8 is stagedPack for an int8 weight with every tap's channels
// padded to cp rows, in segments of kw taps (a kernel row).
func stagedPackInt8(q []int8, n, c, taps, kw, cp int) *matmul.PackedBInt8 {
	bT := make([]int8, taps*cp*n)
	for o := 0; o < n; o++ {
		for i := 0; i < c; i++ {
			for t := 0; t < taps; t++ {
				bT[(t*cp+i)*n+o] = q[(o*c+i)*taps+t]
			}
		}
	}
	return matmul.PackBInt8Segments(bT, taps*cp, n, kw*cp)
}

// stagedWinograd is how PrepareWinograd transformed filters before
// transformFilters: rectTransform per (o, i), scattered into a [mh·mw][ic][oc]
// staging copy, then PackB per position.
func stagedWinograd(weight *tensor.Tensor, kh, kw, nh, nw int) []*matmul.PackedB {
	matsH, _ := winograd.Generate(nh, kh, winograd.DefaultF)
	matsW, _ := winograd.Generate(nw, kw, winograd.DefaultF)
	mh, mw := matsH.M, matsW.M
	oc, ic := weight.Dim(0), weight.Dim(1)
	wT := make([]float32, mh*mw*ic*oc)
	tile, scratch := make([]float32, mh*mw), make([]float32, mh*kw)
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			rectTransform(tile, weight.Data()[(o*ic+i)*kh*kw:(o*ic+i+1)*kh*kw], matsH.G, matsW.G, mh, kh, kw, mw, scratch)
			for p, v := range tile {
				wT[(p*ic+i)*oc+o] = v
			}
		}
	}
	packed := make([]*matmul.PackedB, mh*mw)
	for p := range packed {
		packed[p] = matmul.PackB(wT[p*ic*oc:(p+1)*ic*oc], ic, oc)
	}
	return packed
}

// TestPreparedPanelsMatchStagedRoute is the kernel-level pack parity test:
// every kernel that packs a weight must hold, field for field, the panels
// the staged-transpose route made — over the layer shapes of the engine,
// grouped im2col, the int8 channel padding, and Winograd at every tile size
// the scheme selection picks from. Weights are finite and never -0, so
// DeepEqual's float comparison is bitwise here; matmul's parity test covers
// NaN payloads and signed zeros.
func TestPreparedPanelsMatchStagedRoute(t *testing.T) {
	same := func(t *testing.T, what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: packed form differs from the staged route's", what)
		}
	}
	seed := uint64(0)
	for _, oc := range []int{1, 15, 16, 17, 100} {
		for _, ic := range []int{1, 3, 4, 5, 64} {
			for _, k := range []int{1, 3, 7} {
				seed++
				t.Run(fmt.Sprintf("oc%d_ic%d_k%d", oc, ic, k), func(t *testing.T) {
					taps := k * k
					weight := tensor.NewRandom(seed, 1, oc, ic, k, k)
					w := weight.Data()
					a := &graph.Conv2DAttrs{KernelH: k, KernelW: k, StrideH: 1, StrideW: 1, Group: 1, OutputCount: oc, InputCount: ic}
					if k == 1 {
						fc := weight.Reshape(oc, ic)
						same(t, "InnerProduct", PrepareInnerProduct(fc, nil, &graph.InnerProductAttrs{OutputCount: oc}).packed, stagedPack(w, oc, ic, 1))
						q, _ := quantizeWeightChannels(w, oc, ic, matmul.HaveAVX2())
						same(t, "QuantInnerProduct", PrepareQuantInnerProduct(fc, nil, &graph.InnerProductAttrs{OutputCount: oc}, 0).packed, stagedPackInt8(q, oc, ic, 1, 1, ic))
					}
					same(t, "SlidingConv", PrepareSliding(weight, nil, a).packed, stagedPack(w, oc, ic, taps))
					q, _ := quantizeWeightChannels(w, oc, ic*taps, matmul.HaveAVX2())
					same(t, "QuantConv", PrepareQuantConv(weight, nil, a, 0).packed, stagedPackInt8(q, oc, ic, taps, k, tensor.UpDiv(ic, 4)*4))
					for _, g := range []int{1, 2, 32} {
						if oc%g != 0 || ic%g != 0 {
							continue
						}
						ga := *a
						ga.Group = g
						gw := tensor.NewRandom(seed, 1, oc, ic/g, k, k)
						var want []*matmul.PackedB
						for j := 0; j < g; j++ {
							n := oc / g * (ic / g) * taps
							want = append(want, stagedPack(gw.Data()[j*n:(j+1)*n], oc/g, ic/g*taps, 1))
						}
						same(t, fmt.Sprintf("Im2colConv group %d", g), PrepareIm2col(gw, nil, &ga).packed, want)
					}
					if k == 3 {
						for _, tile := range []int{2, 4, 6} {
							wc, err := PrepareWinograd(weight, nil, a, tile, tile)
							if err != nil {
								t.Fatal(err)
							}
							same(t, fmt.Sprintf("WinogradConv F(%d,3)", tile), wc.packedW, stagedWinograd(weight, 3, 3, tile, tile))
						}
					}
				})
			}
		}
	}
	// Rectangular transforms: a 1×7 and a 7×1 kernel at tile 4 (m = 10).
	for _, kk := range [][2]int{{1, 7}, {7, 1}} {
		weight := tensor.NewRandom(99, 1, 17, 5, kk[0], kk[1])
		a := &graph.Conv2DAttrs{KernelH: kk[0], KernelW: kk[1], StrideH: 1, StrideW: 1, Group: 1, OutputCount: 17, InputCount: 5}
		wc, err := PrepareWinograd(weight, nil, a, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		nh, nw := 4, 4
		if kk[0] == 1 {
			nh = 1
		}
		if kk[1] == 1 {
			nw = 1
		}
		same(t, fmt.Sprintf("WinogradConv %dx%d", kk[0], kk[1]), wc.packedW, stagedWinograd(weight, kk[0], kk[1], nh, nw))
	}
}

// TestShareRunsOnTheSamePreparedWeight: a Share holds the prototype's
// prepared weight — the same panels, not a copy — and run state of its own,
// so shares of one prototype run concurrently (under -race) and compute the
// prototype's bits.
func TestShareRunsOnTheSamePreparedWeight(t *testing.T) {
	const ic, oc, h, w = 20, 36, 9, 11
	weight := func(k int) *tensor.Tensor { return tensor.NewRandom(uint64(k), 0.3, oc, ic, k, k) }
	bias := tensor.NewRandom(5, 0.1, oc)
	a := func(k int) *graph.Conv2DAttrs {
		return &graph.Conv2DAttrs{KernelH: k, KernelW: k, StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2, Group: 1, OutputCount: oc, InputCount: ic, ReLU: true}
	}
	src := tensor.NewRandom(7, 1, 1, ic, h, w)
	src4 := tensor.NewWithLayout(tensor.NC4HW4, 1, ic, h, w)
	src4.CopyFrom(src)

	c1 := PrepareSliding(weight(1), bias, a(1))
	sc := PrepareSliding(weight(3), bias, a(3))
	wc, err := PrepareWinograd(weight(3), bias, a(3), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	qc := PrepareQuantConv(weight(3), bias, a(3), 0)
	dw := PrepareDepthwise(tensor.NewRandom(8, 0.3, ic, 1, 3, 3), nil, &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Group: ic, OutputCount: ic, InputCount: ic})
	if s := c1.Share(); s.packed != c1.packed || &s.bias[0] != &c1.bias[0] || s == c1 {
		t.Fatal("SlidingConv.Share (1×1) does not share the panels")
	}
	if s := sc.Share(); s.packed != sc.packed {
		t.Fatal("SlidingConv.Share does not share the panels")
	}
	if s := wc.Share(); &s.packedW[0] != &wc.packedW[0] {
		t.Fatal("WinogradConv.Share does not share the position panels")
	}
	if s := qc.Share(); s.packed != qc.packed || &s.wScales[0] != &qc.wScales[0] || &s.rq.Scale[0] == &qc.rq.Scale[0] || s.quantT.c != s {
		t.Fatal("QuantConv.Share must share panels and weight scales, not requantization scales")
	}
	if s := dw.Share(); &s.packed[0] != &dw.packed[0] {
		t.Fatal("DepthwiseConv.Share does not share the packed weight")
	}
	im := PrepareIm2col(weight(3), bias, a(3))
	if s := im.Share(); &s.packed[0] != &im.packed[0] || s.colsT.c != s || s.gemmT.c != s || s.scatterT.c != s {
		t.Fatal("Im2colConv.Share must share the panels and bind its tasks to itself")
	}
	fcW := tensor.NewRandom(9, 0.3, 10, ic*h*w)
	ip := PrepareInnerProduct(fcW, bias, &graph.InnerProductAttrs{OutputCount: 10})
	qip := PrepareQuantInnerProduct(fcW, bias, &graph.InnerProductAttrs{OutputCount: 10}, 0)
	if ip.Share().packed != ip.packed || qip.Share().packed != qip.packed {
		t.Fatal("InnerProduct.Share does not share the panels")
	}

	// Four shares of each prototype run at once; every output must be the
	// prototype's own, bit for bit.
	type run func(dst *tensor.Tensor, p *sched.Pool)
	protos := map[string]func() run{
		"conv1x1":  func() run { k := c1.Share(); return func(d *tensor.Tensor, p *sched.Pool) { k.Run(d, src4, p) } },
		"sliding":  func() run { k := sc.Share(); return func(d *tensor.Tensor, p *sched.Pool) { k.Run(d, src4, p) } },
		"winograd": func() run { k := wc.Share(); return func(d *tensor.Tensor, p *sched.Pool) { k.Run(d, src4, p, nil) } },
		"int8":     func() run { k := qc.Share(); return func(d *tensor.Tensor, p *sched.Pool) { k.Run(d, src4, p, nil) } },
	}
	for name, share := range protos {
		want := tensor.NewWithLayout(tensor.NC4HW4, 1, oc, h, w)
		share()(want, sched.New(1))
		outs := make([]*tensor.Tensor, 4)
		var wg sync.WaitGroup
		for i := range outs {
			outs[i] = tensor.NewWithLayout(tensor.NC4HW4, 1, oc, h, w)
			k := share()
			wg.Add(1)
			go func(d *tensor.Tensor) {
				defer wg.Done()
				p := sched.New(2)
				defer p.Close()
				k(d, p)
			}(outs[i])
		}
		wg.Wait()
		for i, got := range outs {
			if !bitsEqual(want.Data(), got.Data()) {
				t.Fatalf("%s: concurrent share %d differs from the prototype's run", name, i)
			}
		}
	}
}
