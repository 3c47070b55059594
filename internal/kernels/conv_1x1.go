package kernels

import (
	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Conv1x1 is the prepared state of the 1×1 convolution, which MNN lowers to
// one large matrix multiplication (paper Section 3.2): pixels × [ic, oc].
// The weight is stored transposed as [ic, oc] in 64-byte panels, and
// matmul.PackedB.MulNC4Into reads the NC4HW4 source and writes the NC4HW4
// destination directly — four adjacent pixels × one channel pack is one
// cache line on either side — with bias and activation fused into the
// store. One pass, no layout staging, no workspace.
type Conv1x1 struct {
	attrs  graph.Conv2DAttrs
	ic, oc int
	packed *matmul.PackedB // [ic][oc] weight in 64-byte panels
	bias   []float32       // oc rounded up to whole panels
	lo, hi float32         // activation clamp

	rs conv1x1Run
}

// conv1x1Run describes one Run as runs of adjacent output pixels whose
// source pixels are evenly spaced: at stride 1 a sample is a single run of
// OH·OW pixels; with a stride every output row is its own run. Runs are cut
// into four-pixel blocks, the unit the pool splits.
type conv1x1Run struct {
	s, d               []float32
	srcPack, dstPack   int // floats between channel packs: H·W·4, OH·OW·4
	srcBatch, dstBatch int // floats between samples
	runs, runLen       int // runs per sample, output pixels per run
	srcRun, srcPix     int // source floats between runs, between pixels
	blocks             int // four-pixel blocks per run
}

// PrepareConv1x1 packs weights for the 1×1 kernel. weight is [oc, ic, 1, 1].
func PrepareConv1x1(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) *Conv1x1 {
	oc, ic := weight.Dim(0), weight.Dim(1)
	c := &Conv1x1{attrs: *a, ic: ic, oc: oc,
		packed: matmul.PackWeight(weight.Data(), oc, ic, 1),
		bias:   paddedBias(bias, tensor.UpDiv(oc, matmul.PanelWidth)*matmul.PanelWidth)}
	c.lo, c.hi = clampBounds(a.ReLU, a.ReLU6)
	return c
}

// Share returns a kernel over c's prepared weight with run state of its own.
func (c *Conv1x1) Share() *Conv1x1 {
	s := *c
	s.rs = conv1x1Run{}
	return &s
}

// Run executes the convolution on the pool. src and dst must be NC4HW4.
// Steady-state calls are allocation-free.
func (c *Conv1x1) Run(dst, src *tensor.Tensor, p *sched.Pool) {
	a := &c.attrs
	N, H, W := src.Batch(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	sh, sw := strideOr1(a.StrideH), strideOr1(a.StrideW)
	r := &c.rs
	*r = conv1x1Run{
		s: src.Data(), d: dst.Data(),
		srcPack: H * W * 4, dstPack: OH * OW * 4,
		runs: 1, runLen: OH * OW, srcPix: 4,
	}
	r.srcBatch = tensor.UpDiv(c.ic, 4) * r.srcPack
	r.dstBatch = tensor.UpDiv(c.oc, 4) * r.dstPack
	if sh != 1 || sw != 1 {
		r.runs, r.runLen = OH, OW
		r.srcRun, r.srcPix = sh*W*4, sw*4
	}
	r.blocks = tensor.UpDiv(r.runLen, 4)

	// MulNC4Into computes every pixel from that pixel alone, so neither the
	// lane count nor the batch size can change a bit of the result: a
	// batch-N run is bitwise identical to N single runs, which the serving
	// micro-batcher relies on to split stacked outputs back per request.
	total := N * r.runs * r.blocks
	p.Run(total, sched.Chunk(total, p.Lanes(), 1), c)
}

// RunChunk implements sched.Task over four-pixel blocks: the range is cut
// at run boundaries, each piece one MulNC4Into call.
func (c *Conv1x1) RunChunk(_, start, end int) {
	r := &c.rs
	for item := start; item < end; {
		run, b0 := item/r.blocks, item%r.blocks
		b1 := min(r.blocks, b0+end-item)
		n, y := run/r.runs, run%r.runs
		q0, q1 := b0*4, min(b1*4, r.runLen)
		c.packed.MulNC4Into(
			r.d[n*r.dstBatch+(y*r.runLen+q0)*4:(n+1)*r.dstBatch], r.dstPack,
			r.s[n*r.srcBatch+y*r.srcRun+q0*r.srcPix:(n+1)*r.srcBatch], r.srcPack, r.srcPix,
			q1-q0, c.bias, c.lo, c.hi)
		item += b1 - b0
	}
}
