package kernels

import (
	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Im2colConv is the prepared state of the generic im2col+GEMM convolution.
// This is the strategy TF-Lite-style engines apply to every convolution and
// the path MNN itself uses for configurations outside the Winograd/sliding
// sweet spots (grouped non-depthwise convs, exotic dilations). Activations
// are NCHW. The per-group transposed weights are pre-packed into 64-byte
// GEMM panels at prepare time.
type Im2colConv struct {
	attrs  graph.Conv2DAttrs
	ic, oc int
	// packed[g] is group g's weight in matmul panels.
	packed []*matmul.PackedB
	bias   []float32

	rs       im2colRun
	colsT    im2colCols
	gemmT    im2colGemm
	scatterT im2colScatter
}

type im2colRun struct {
	s, d                   []float32
	H, W, OH, OW           int
	kh, kw, sh, sw, dh, dw int
	ph, pw                 int
	group, icg, ocg, k, px int
	n, g                   int // current (batch, group) of the sequential outer loop
	cols, prod             []float32
}

type im2colCols struct{ c *Im2colConv }
type im2colGemm struct{ c *Im2colConv }
type im2colScatter struct{ c *Im2colConv }

// PrepareIm2col packs the [oc, ic/g, kh, kw] weight into per-group
// transposed GEMM operands.
func PrepareIm2col(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) *Im2colConv {
	oc := weight.Dim(0)
	icg := weight.Dim(1) // ic per group
	kh, kw := a.KernelH, a.KernelW
	group := a.Group
	if group <= 0 {
		group = 1
	}
	ocg := oc / group
	k := icg * kh * kw
	c := &Im2colConv{attrs: *a, ic: icg * group, oc: oc}
	wT := make([]float32, group*k*ocg) // [group][icg·kh·kw][oc/g]: the transposed per-group weight PackB copies
	w := weight.Data()
	for g := 0; g < group; g++ {
		for o := 0; o < ocg; o++ {
			for i := 0; i < k; i++ {
				wT[(g*k+i)*ocg+o] = w[(g*ocg+o)*k+i]
			}
		}
	}
	c.packed = make([]*matmul.PackedB, group)
	for g := 0; g < group; g++ {
		c.packed[g] = matmul.PackB(wT[g*k*ocg:(g+1)*k*ocg], k, ocg)
	}
	c.bias = make([]float32, oc)
	if bias != nil {
		copy(c.bias, bias.Data())
	}
	c.colsT.c, c.gemmT.c, c.scatterT.c = c, c, c
	return c
}

// WorkspaceSize returns the scratch float32 count for a batch-element run:
// the im2col patch matrix [oh*ow, icg*kh*kw] plus the product [oh*ow, ocg].
func (c *Im2colConv) WorkspaceSize(h, w int) int {
	a := &c.attrs
	oh, ow, err := graph.ConvOutputSize(h, w, a)
	if err != nil {
		return 0
	}
	group := a.Group
	if group <= 0 {
		group = 1
	}
	icg := c.ic / group
	ocg := c.oc / group
	return oh*ow*icg*a.KernelH*a.KernelW + oh*ow*ocg
}

// Run executes the convolution on NCHW tensors over the pool. workspace may
// be nil or at least WorkspaceSize(h, w) floats; with a planner-provided
// workspace, steady-state calls are allocation-free.
func (c *Im2colConv) Run(dst, src *tensor.Tensor, p *sched.Pool, workspace []float32) {
	a := &c.attrs
	N, _, H, W := src.Batch(), src.Channels(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	ph, pw := graph.ConvPadding(H, W, a)
	group := a.Group
	if group <= 0 {
		group = 1
	}
	icg := c.ic / group
	ocg := c.oc / group
	k := icg * a.KernelH * a.KernelW
	px := OH * OW
	if len(workspace) < px*k+px*ocg {
		workspace = make([]float32, px*k+px*ocg)
	}
	lanes := p.Lanes()
	c.rs = im2colRun{
		s: src.Data(), d: dst.Data(),
		H: H, W: W, OH: OH, OW: OW,
		kh: a.KernelH, kw: a.KernelW,
		sh: strideOr1(a.StrideH), sw: strideOr1(a.StrideW),
		dh: dilOr1(a.DilationH), dw: dilOr1(a.DilationW),
		ph: ph, pw: pw,
		group: group, icg: icg, ocg: ocg, k: k, px: px,
		cols: workspace[:px*k],
		prod: workspace[px*k : px*k+px*ocg],
	}

	for n := 0; n < N; n++ {
		for g := 0; g < group; g++ {
			c.rs.n, c.rs.g = n, g
			// im2col: rows are output pixels, columns are (ic, ky, kx).
			p.Run(px, sched.Chunk(px, lanes, elemChunksPerLane), &c.colsT)
			// GEMM [px, k] × [k, ocg] → [px, ocg] on packed panels.
			p.Run(px, sched.Chunk(px, lanes, 1), &c.gemmT)
			// Scatter to NCHW with bias + activation.
			p.Run(ocg, sched.Chunk(ocg, lanes, elemChunksPerLane), &c.scatterT)
		}
	}
}

func (t *im2colCols) RunChunk(_, start, end int) {
	c := t.c
	r := &c.rs
	s := r.s
	for p := start; p < end; p++ {
		oy, ox := p/r.OW, p%r.OW
		row := r.cols[p*r.k : (p+1)*r.k]
		idx := 0
		for i := 0; i < r.icg; i++ {
			srcC := r.g*r.icg + i
			chanOff := (r.n*c.ic + srcC) * r.H * r.W
			for ky := 0; ky < r.kh; ky++ {
				iy := oy*r.sh - r.ph + ky*r.dh
				for kx := 0; kx < r.kw; kx++ {
					ix := ox*r.sw - r.pw + kx*r.dw
					if iy < 0 || iy >= r.H || ix < 0 || ix >= r.W {
						row[idx] = 0
					} else {
						row[idx] = s[chanOff+iy*r.W+ix]
					}
					idx++
				}
			}
		}
	}
}

func (t *im2colGemm) RunChunk(_, start, end int) {
	c := t.c
	r := &c.rs
	c.packed[r.g].MulInto(r.prod[start*r.ocg:end*r.ocg], r.cols[start*r.k:end*r.k], end-start)
}

func (t *im2colScatter) RunChunk(_, start, end int) {
	c := t.c
	r := &c.rs
	a := &c.attrs
	d := r.d
	for o := start; o < end; o++ {
		dstC := r.g*r.ocg + o
		b := c.bias[dstC]
		off := (r.n*c.oc + dstC) * r.OH * r.OW
		for p := 0; p < r.px; p++ {
			v := r.prod[p*r.ocg+o] + b
			if a.ReLU6 {
				v = relu6(v)
			} else if a.ReLU {
				v = relu(v)
			}
			d[off+p] = v
		}
	}
}
