// Schemetuner explores the pre-inference scheme selection (Section 3.2,
// Equations 2–3) interactively: for a sweep of convolution configurations it
// prints which algorithm the cost model picks — sliding window, Winograd
// with which tile size, Strassen-matmul (1×1), depthwise or im2col — and the
// predicted saving over the direct kernel. This is the "semi-automated
// search" that replaces both NCNN-style per-shape assembly and TVM-style
// offline auto-tuning.
package main

import (
	"fmt"

	"mnn"
	"mnn/internal/graph"
)

func main() {
	type cfg struct {
		desc                    string
		k, kw, ic, oc, size     int
		stride, dilation, group int
	}
	cases := []cfg{
		{"stem conv, tiny channels", 3, 3, 3, 32, 224, 2, 1, 1},
		{"early 3×3, mid channels", 3, 3, 64, 64, 112, 1, 1, 1},
		{"late 3×3, wide channels", 3, 3, 512, 512, 14, 1, 1, 1},
		{"pointwise 1×1, wide", 1, 1, 256, 256, 28, 1, 1, 1},
		{"pointwise 1×1, narrow", 1, 1, 32, 64, 56, 1, 1, 1},
		{"depthwise 3×3", 3, 3, 256, 256, 28, 1, 1, 256},
		{"asymmetric 1×7 (Inception-B)", 1, 7, 128, 128, 17, 1, 1, 1},
		{"asymmetric 7×1 (Inception-B)", 7, 1, 128, 128, 17, 1, 1, 1},
		{"5×5 (Inception-A)", 5, 5, 48, 64, 35, 1, 1, 1},
		{"dilated 3×3 d2", 3, 3, 64, 64, 56, 1, 2, 1},
		{"grouped 3×3 g4", 3, 3, 64, 64, 56, 1, 1, 4},
		{"strided 3×3 s2", 3, 3, 128, 256, 28, 2, 1, 1},
		{"7×7 stem (ResNet)", 7, 7, 3, 64, 224, 2, 1, 1},
	}
	fmt.Printf("%-30s %-14s %-6s %10s\n", "configuration", "scheme", "tile", "saving")
	for _, c := range cases {
		a := &graph.Conv2DAttrs{
			KernelH: c.k, KernelW: c.kw,
			StrideH: c.stride, StrideW: c.stride,
			DilationH: c.dilation, DilationW: c.dilation,
			PadH: c.k / 2, PadW: c.kw / 2,
			Group: c.group, InputCount: c.ic, OutputCount: c.oc,
		}
		dec := mnn.SelectConvScheme(a, []int{1, c.ic, c.size, c.size})
		tile := "-"
		if dec.Scheme.String() == "winograd" {
			tile = fmt.Sprintf("%d×%d", dec.TileH, dec.TileW)
		}
		saving := (1 - float64(dec.EffMULs)/float64(dec.DirectMULs)) * 100
		fmt.Printf("%-30s %-14s %-6s %9.1f%%\n", c.desc, dec.Scheme, tile, saving)
	}
	fmt.Println("\n(positive saving = effective multiplies below the direct kernel;")
	fmt.Println(" 0% = the fast path equals direct cost and was chosen for other reasons)")
}
