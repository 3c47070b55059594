package models

import (
	"fmt"

	"mnn/internal/graph"
)

// InceptionV3 builds Inception-v3 (Szegedy et al.) for 299×299 input. The
// B-blocks contain the 1×7 and 7×1 convolutions that expose the
// case-by-case optimization bottleneck of the paper's Figure 8.
func InceptionV3() *graph.Graph {
	b := newBuilder("inception-v3", 0x1007)
	x := b.input("data", 1, 3, 299, 299)

	cbr := func(name, in string, ic, oc int, o convOpts) string {
		o.relu = true
		return b.conv(name, in, ic, oc, o)
	}

	// Stem: 299 → 35×35×192.
	x = cbr("conv1", x, 3, 32, convOpts{kh: 3, sh: 2})
	x = cbr("conv2", x, 32, 32, convOpts{kh: 3})
	x = cbr("conv3", x, 32, 64, convOpts{kh: 3, ph: 1, pw: 1})
	x = b.maxPool("pool1", x, 3, 2, 0)
	x = cbr("conv4", x, 64, 80, convOpts{kh: 1})
	x = cbr("conv5", x, 80, 192, convOpts{kh: 3})
	x = b.maxPool("pool2", x, 3, 2, 0)
	ic := 192

	// Inception-A ×3 (35×35).
	inceptionA := func(name, in string, poolProj int) string {
		b1 := cbr(name+"_1x1", in, ic, 64, convOpts{kh: 1})
		b5 := cbr(name+"_5x5_reduce", in, ic, 48, convOpts{kh: 1})
		b5 = cbr(name+"_5x5", b5, 48, 64, convOpts{kh: 5, ph: 2, pw: 2})
		b3 := cbr(name+"_3x3_reduce", in, ic, 64, convOpts{kh: 1})
		b3 = cbr(name+"_3x3a", b3, 64, 96, convOpts{kh: 3, ph: 1, pw: 1})
		b3 = cbr(name+"_3x3b", b3, 96, 96, convOpts{kh: 3, ph: 1, pw: 1})
		bp := b.avgPool(name+"_pool", in, 3, 1, 1)
		bp = cbr(name+"_pool_proj", bp, ic, poolProj, convOpts{kh: 1})
		out := b.concat(name+"_concat", b1, b5, b3, bp)
		ic = 64 + 64 + 96 + poolProj
		return out
	}
	x = inceptionA("mixed0", x, 32) // 256
	x = inceptionA("mixed1", x, 64) // 288
	x = inceptionA("mixed2", x, 64) // 288

	// Reduction-A: 35 → 17.
	{
		in := x
		b3 := cbr("mixed3_3x3", in, ic, 384, convOpts{kh: 3, sh: 2})
		bd := cbr("mixed3_dbl_reduce", in, ic, 64, convOpts{kh: 1})
		bd = cbr("mixed3_dbl_a", bd, 64, 96, convOpts{kh: 3, ph: 1, pw: 1})
		bd = cbr("mixed3_dbl_b", bd, 96, 96, convOpts{kh: 3, sh: 2})
		bp := b.maxPool("mixed3_pool", in, 3, 2, 0)
		x = b.concat("mixed3_concat", b3, bd, bp)
		ic = 384 + 96 + ic
	}

	// Inception-B ×4 (17×17) — the 1×7/7×1 factorized convolutions.
	inceptionB := func(name, in string, c7 int) string {
		b1 := cbr(name+"_1x1", in, ic, 192, convOpts{kh: 1})
		b7 := cbr(name+"_7x7_reduce", in, ic, c7, convOpts{kh: 1})
		b7 = cbr(name+"_1x7", b7, c7, c7, convOpts{kh: 1, kw: 7, ph: 0, pw: 3})
		b7 = cbr(name+"_7x1", b7, c7, 192, convOpts{kh: 7, kw: 1, ph: 3, pw: 0})
		bd := cbr(name+"_dbl_reduce", in, ic, c7, convOpts{kh: 1})
		bd = cbr(name+"_dbl_7x1a", bd, c7, c7, convOpts{kh: 7, kw: 1, ph: 3, pw: 0})
		bd = cbr(name+"_dbl_1x7a", bd, c7, c7, convOpts{kh: 1, kw: 7, ph: 0, pw: 3})
		bd = cbr(name+"_dbl_7x1b", bd, c7, c7, convOpts{kh: 7, kw: 1, ph: 3, pw: 0})
		bd = cbr(name+"_dbl_1x7b", bd, c7, 192, convOpts{kh: 1, kw: 7, ph: 0, pw: 3})
		bp := b.avgPool(name+"_pool", in, 3, 1, 1)
		bp = cbr(name+"_pool_proj", bp, ic, 192, convOpts{kh: 1})
		out := b.concat(name+"_concat", b1, b7, bd, bp)
		ic = 4 * 192
		return out
	}
	x = inceptionB("mixed4", x, 128)
	x = inceptionB("mixed5", x, 160)
	x = inceptionB("mixed6", x, 160)
	x = inceptionB("mixed7", x, 192)

	// Reduction-B: 17 → 8.
	{
		in := x
		b3 := cbr("mixed8_3x3_reduce", in, ic, 192, convOpts{kh: 1})
		b3 = cbr("mixed8_3x3", b3, 192, 320, convOpts{kh: 3, sh: 2})
		b7 := cbr("mixed8_7x7_reduce", in, ic, 192, convOpts{kh: 1})
		b7 = cbr("mixed8_1x7", b7, 192, 192, convOpts{kh: 1, kw: 7, ph: 0, pw: 3})
		b7 = cbr("mixed8_7x1", b7, 192, 192, convOpts{kh: 7, kw: 1, ph: 3, pw: 0})
		b7 = cbr("mixed8_3x3b", b7, 192, 192, convOpts{kh: 3, sh: 2})
		bp := b.maxPool("mixed8_pool", in, 3, 2, 0)
		x = b.concat("mixed8_concat", b3, b7, bp)
		ic = 320 + 192 + ic
	}

	// Inception-C ×2 (8×8).
	inceptionC := func(name, in string) string {
		b1 := cbr(name+"_1x1", in, ic, 320, convOpts{kh: 1})
		b3 := cbr(name+"_3x3_reduce", in, ic, 384, convOpts{kh: 1})
		b3a := cbr(name+"_1x3", b3, 384, 384, convOpts{kh: 1, kw: 3, ph: 0, pw: 1})
		b3b := cbr(name+"_3x1", b3, 384, 384, convOpts{kh: 3, kw: 1, ph: 1, pw: 0})
		bd := cbr(name+"_dbl_reduce", in, ic, 448, convOpts{kh: 1})
		bd = cbr(name+"_dbl_3x3", bd, 448, 384, convOpts{kh: 3, ph: 1, pw: 1})
		bda := cbr(name+"_dbl_1x3", bd, 384, 384, convOpts{kh: 1, kw: 3, ph: 0, pw: 1})
		bdb := cbr(name+"_dbl_3x1", bd, 384, 384, convOpts{kh: 3, kw: 1, ph: 1, pw: 0})
		bp := b.avgPool(name+"_pool", in, 3, 1, 1)
		bp = cbr(name+"_pool_proj", bp, ic, 192, convOpts{kh: 1})
		out := b.concat(name+"_concat", b1, b3a, b3b, bda, bdb, bp)
		ic = 320 + 4*384 + 192
		return out
	}
	x = inceptionC("mixed9", x)
	x = inceptionC("mixed10", x)

	x = b.globalAvgPool("pool3", x)
	x = b.dropout("drop", x)
	x = b.fc("fc", x, 2048, 1000)
	x = b.softmax("prob", x, 1)
	return b.finish(x)
}

// CommoditySearchDetector builds the main-object detector of the paper's
// Section 4.3 online case study (Table 6): an SSD-style detector with a
// full-width MobileNet backbone on 300×300 input, a multi-scale feature
// pyramid, per-scale box/class heads (100 commodity categories), sized to
// the ~0.8 GMAC budget that matches the published ~90 ms AIT on Kirin-970
// class devices.
func CommoditySearchDetector() *graph.Graph {
	b := newBuilder("commodity-detector", 0x1008)
	x := b.input("data", 1, 3, 300, 300)
	x = b.conv("conv1", x, 3, 32, convOpts{kh: 3, sh: 2, ph: 1, pw: 1, relu: true})
	blocks := []struct{ oc, stride int }{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1},
		{512, 2}, {512, 1}, {512, 1}, {512, 1},
	}
	ic := 32
	for i, blk := range blocks {
		dw := fmt.Sprintf("conv%d_dw", i+2)
		pw := fmt.Sprintf("conv%d_pw", i+2)
		x = b.conv(dw, x, ic, ic, convOpts{kh: 3, sh: blk.stride, ph: 1, pw: 1, group: ic, relu: true})
		x = b.conv(pw, x, ic, blk.oc, convOpts{kh: 1, relu: true})
		ic = blk.oc
	}
	// Feature pyramid: two extra downsampling stages.
	p1 := x                                                                                // 19×19×512
	p2 := b.conv("extra1", p1, 512, 256, convOpts{kh: 3, sh: 2, ph: 1, pw: 1, relu: true}) // 10×10
	p3 := b.conv("extra2", p2, 256, 256, convOpts{kh: 3, sh: 2, ph: 1, pw: 1, relu: true}) // 5×5
	// Per-scale heads: 4 box coords + 100 classes per anchor (1 anchor/cell
	// keeps the toy head simple).
	heads := []struct {
		name string
		feat string
		c    int
	}{
		{"head1", p1, 512}, {"head2", p2, 256}, {"head3", p3, 256},
	}
	var boxOuts, clsOuts []string
	for _, h := range heads {
		bx := b.conv(h.name+"_box", h.feat, h.c, 4, convOpts{kh: 3, ph: 1, pw: 1})
		cl := b.conv(h.name+"_cls", h.feat, h.c, 100, convOpts{kh: 3, ph: 1, pw: 1})
		boxOuts = append(boxOuts, b.globalAvgPool(h.name+"_boxpool", bx))
		clsOuts = append(clsOuts, b.globalAvgPool(h.name+"_clspool", cl))
	}
	box := b.concat("box", boxOuts...)
	cls := b.concat("cls_all", clsOuts...)
	clsFlat := b.flatten("cls_flat", cls)
	prob := b.softmax("cls_prob", clsFlat, 1)
	return b.finish(box, prob)
}
