package kernels

import (
	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Conv1x1 is the prepared state of the 1×1 convolution, which MNN lowers to
// one large matrix multiplication (paper Section 3.2). The pixel matrix is
// laid out [pixels, ic] so each lane multiplies a contiguous row block, and
// the weight is stored transposed as [ic, oc], packed into 64-byte panels
// for matmul.PackedB's 4×16 micro-kernel.
type Conv1x1 struct {
	attrs  graph.Conv2DAttrs
	ic, oc int
	packed *matmul.PackedB // [ic][oc] weight in 64-byte panels
	bias   []float32

	rs      conv1x1Run
	unpackT conv1x1Unpack
	gemmT   conv1x1Gemm
	packT   conv1x1Pack
}

type conv1x1Run struct {
	s, d             []float32
	H, W, OH, OW     int
	sh, sw, ic4, oc4 int
	ohw              int
	in, out          []float32 // workspace views: [px,ic] and [px,oc]
}

type conv1x1Unpack struct{ c *Conv1x1 }
type conv1x1Gemm struct{ c *Conv1x1 }
type conv1x1Pack struct{ c *Conv1x1 }

// PrepareConv1x1 packs weights for the 1×1 kernel. weight is [oc, ic, 1, 1].
func PrepareConv1x1(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) *Conv1x1 {
	oc, ic := weight.Dim(0), weight.Dim(1)
	c := &Conv1x1{attrs: *a, ic: ic, oc: oc}
	wT := make([]float32, ic*oc)
	w := weight.Data()
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			wT[i*oc+o] = w[o*ic+i]
		}
	}
	c.packed = matmul.PackB(wT, ic, oc)
	c.bias = make([]float32, oc)
	if bias != nil {
		copy(c.bias, bias.Data())
	}
	c.unpackT.c, c.gemmT.c, c.packT.c = c, c, c
	return c
}

// WorkspaceSize returns the per-run scratch requirement in float32s for a
// given source size: the unpacked [pixels, ic] matrix and the [pixels, oc]
// product.
func (c *Conv1x1) WorkspaceSize(n, h, w int) int {
	oh := tensor.UpDiv(h, strideOr1(c.attrs.StrideH))
	ow := tensor.UpDiv(w, strideOr1(c.attrs.StrideW))
	return Conv1x1WorkspaceFloats(c.ic, c.oc, n, oh, ow)
}

// Run executes the convolution on the pool. src and dst must be NC4HW4.
// workspace may be nil or at least WorkspaceSize(n, h, w) floats; with a
// planner-provided workspace, steady-state calls are allocation-free.
func (c *Conv1x1) Run(dst, src *tensor.Tensor, p *sched.Pool, workspace []float32) {
	a := &c.attrs
	N, H, W := src.Batch(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	lanes := p.Lanes()
	px := N * OH * OW
	need := px * (c.ic + c.oc) // == Conv1x1WorkspaceFloats(...)
	if len(workspace) < need {
		workspace = make([]float32, need)
	}
	c.rs = conv1x1Run{
		s: src.Data(), d: dst.Data(),
		H: H, W: W, OH: OH, OW: OW,
		sh: strideOr1(a.StrideH), sw: strideOr1(a.StrideW),
		ic4: tensor.UpDiv(c.ic, 4), oc4: tensor.UpDiv(c.oc, 4),
		ohw: OH * OW,
		in:  workspace[:px*c.ic],
		out: workspace[px*c.ic : need],
	}

	// Unpack NC4HW4 → [pixels, ic] rows (applying stride).
	p.Run(px, sched.Chunk(px, lanes, elemChunksPerLane), &c.unpackT)

	// GEMM: [pixels, ic] × [ic, oc] → [pixels, oc], one row block per lane,
	// rounded up to whole four-row micro-kernel blocks. PackedB.MulInto
	// computes every row from that row alone, so neither the lane count nor
	// the batch size can change a bit of the result: a batch-N run is
	// bitwise identical to N single runs, which the serving micro-batcher
	// relies on to split stacked outputs back per request.
	p.Run(px, (sched.Chunk(px, lanes, 1)+3)&^3, &c.gemmT)

	// Repack [pixels, oc] → NC4HW4 with bias + activation.
	p.Run(px, sched.Chunk(px, lanes, elemChunksPerLane), &c.packT)
}

func (t *conv1x1Unpack) RunChunk(_, start, end int) {
	c := t.c
	r := &c.rs
	s := r.s
	// Pixel coordinates advance incrementally — no per-pixel div/mod.
	n := start / r.ohw
	rem := start % r.ohw
	py := rem / r.OW
	px := rem % r.OW
	hw := r.H * r.W
	for p := start; p < end; p++ {
		row := r.in[p*c.ic : (p+1)*c.ic]
		srcBase := n*r.ic4*hw + py*r.sh*r.W + px*r.sw
		for cz := 0; cz < r.ic4; cz++ {
			so := (srcBase + cz*hw) * 4
			lim := c.ic - cz*4
			if lim > 4 {
				lim = 4
			}
			for l := 0; l < lim; l++ {
				row[cz*4+l] = s[so+l]
			}
		}
		px++
		if px == r.OW {
			px = 0
			py++
			if py == r.OH {
				py = 0
				n++
			}
		}
	}
}

func (t *conv1x1Gemm) RunChunk(_, start, end int) {
	c := t.c
	r := &c.rs
	c.packed.MulInto(r.out[start*c.oc:end*c.oc], r.in[start*c.ic:end*c.ic], end-start)
}

func (t *conv1x1Pack) RunChunk(_, start, end int) {
	c := t.c
	r := &c.rs
	a := &c.attrs
	d := r.d
	n := start / r.ohw
	rem := start % r.ohw
	for p := start; p < end; p++ {
		row := r.out[p*c.oc : (p+1)*c.oc]
		base := (n*r.oc4*r.ohw + rem) * 4
		o := 0
		for oz := 0; oz < r.oc4; oz++ {
			lim := c.oc - oz*4
			if lim > 4 {
				lim = 4
			}
			do := base + oz*r.ohw*4
			for ol := 0; ol < lim; ol++ {
				v := row[o] + c.bias[o]
				if a.ReLU6 {
					v = relu6(v)
				} else if a.ReLU {
					v = relu(v)
				}
				d[do+ol] = v
				o++
			}
		}
		rem++
		if rem == r.ohw {
			rem = 0
			n++
		}
	}
}
