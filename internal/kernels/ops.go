package kernels

import (
	"math"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// The operators in this file follow one pattern: a New*Op constructor binds
// tensors and per-channel constants once (pre-inference), and Run reads the
// geometry from the tensors' current shapes — a dynamic-shape session changes
// them in place between runs — and dispatches the op's RunChunk onto the
// persistent worker pool: no closures, no per-run allocation. The loose
// function forms at the bottom keep the seed API for reference kernels and
// tests; they construct a throwaway op per call.

// PoolOp is the prepared max/average pooling execution on NC4HW4 tensors,
// processing the four packed channels of a block lane-parallel. Its oracles
// are the Go poolMax and poolAvg (simd off); with AVX2 the unclipped run of
// each output row is one poolMaxRowNC4 or poolAvgRowNC4 call, and with
// AVX-512 an unpadded 3×3/s2 max pool whose windows all lie inside the image
// is one separable poolMax3x3s2NC4 call per channel pack, poolMax's bits
// either way. Every kernel writes only its output tensor's Data, so the
// output may be a view into a concat's buffer.
type PoolOp struct {
	a        graph.PoolAttrs
	src, dst *tensor.Tensor
	simd     bool // matmul.HaveAVX2: windows run poolMaxRowNC4 / poolAvgRowNC4
	avx512   bool // matmul.HaveAVX512: an unpadded 3×3/s2 max pool runs poolMax3x3s2NC4

	// This run's geometry, set by Run. The output columns [ox0, ox1) have
	// windows wholly inside the image's columns; sep marks a run whose
	// windows all lie inside the image on poolMax3x3s2NC4.
	s, d           []float32
	H, W, OH, OW   int
	kh, kw, sh, sw int
	ph, pw         int
	ox0, ox1       int
	sep            bool
}

// NewPoolOp binds a pooling execution.
func NewPoolOp(dst, src *tensor.Tensor, a *graph.PoolAttrs) *PoolOp {
	return &PoolOp{a: *a, src: src, dst: dst, simd: matmul.HaveAVX2(), avx512: matmul.HaveAVX512()}
}

// Run executes the pooling on the pool.
func (o *PoolOp) Run(p *sched.Pool) {
	a := &o.a
	o.s, o.d = o.src.Data(), o.dst.Data()
	o.H, o.W, o.OH, o.OW = o.src.Height(), o.src.Width(), o.dst.Height(), o.dst.Width()
	o.kh, o.kw, o.sh, o.sw = a.KernelH, a.KernelW, strideOr1(a.StrideH), strideOr1(a.StrideW)
	o.ph, o.pw = graph.PoolPadding(o.H, o.W, a)
	if a.Global {
		o.kh, o.kw, o.sh, o.sw, o.ph, o.pw = o.H, o.W, 1, 1, 0, 0
	}
	o.ox0 = min(tensor.UpDiv(o.pw, o.sw), o.OW)
	o.ox1 = o.ox0
	if last := o.W + o.pw - o.kw; last >= 0 {
		o.ox1 = max(o.ox0, min(last/o.sw+1, o.OW))
	}
	o.sep = o.simd && o.avx512 && o.a.Type == graph.MaxPool && !a.Global &&
		o.kh == 3 && o.kw == 3 && o.sh == 2 && o.sw == 2 && o.ph == 0 && o.pw == 0 &&
		o.OH > 0 && o.OW > 0 && 2*o.OH < o.H && 2*o.OW < o.W
	total := o.src.Batch() * tensor.UpDiv(o.src.Channels(), 4)
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), o)
}

// RunChunk implements sched.Task over (batch, channel-block) items. Each
// output row is its clipped border pixels one by one and one run of the
// pixels between, whose windows are the same taps shifted by the stride; a
// 1×1 output (a global pool) makes the chunk's items one such run. An
// unpadded 3×3/s2 max pool (sep) is one poolMax3x3s2NC4 call per item.
func (o *PoolOp) RunChunk(_, start, end int) {
	plane, oplane := o.H*o.W*4, o.OH*o.OW*4
	if o.sep {
		for item := start; item < end; item++ {
			poolMax3x3s2NC4(&o.d[item*oplane], &o.s[item*plane], o.OH, o.OW, o.W)
		}
		return
	}
	if oplane == 4 {
		o.pool(o.d[start*4:end*4], o.s[start*plane:end*plane], plane, 0, 0)
		return
	}
	for item := start; item < end; item++ {
		s := o.s[item*plane : (item+1)*plane]
		d := o.d[item*oplane : (item+1)*oplane]
		for oy := 0; oy < o.OH; oy++ {
			row := d[oy*o.OW*4 : (oy+1)*o.OW*4]
			for ox := 0; ox < o.ox0; ox++ {
				o.pool(row[ox*4:ox*4+4], s, 0, oy, ox)
			}
			o.pool(row[o.ox0*4:o.ox1*4], s, o.sw*4, oy, o.ox0)
			for ox := o.ox1; ox < o.OW; ox++ {
				o.pool(row[ox*4:ox*4+4], s, 0, oy, ox)
			}
		}
	}
}

// pool writes the len(out)/4 output pixels from (oy, ox) on, whose windows
// are the same taps of s shifted by step floats each. The window is clipped
// to the image once, so the tap loops test no bounds; the taps it keeps are
// visited in (ky, kx) order, as a bounds test per tap would visit them.
func (o *PoolOp) pool(out, s []float32, step, oy, ox int) {
	n := len(out) / 4
	if n == 0 {
		return
	}
	y, x := oy*o.sh-o.ph, ox*o.sw-o.pw
	ky0, ky1 := tapRange(y, 1, o.kh, o.H)
	kx0, kx1 := tapRange(x, 1, o.kw, o.W)
	y0, y1, x0, x1 := y+ky0, y+ky1, x+kx0, x+kx1
	isMax := o.a.Type == graph.MaxPool
	div := float64((y1 - y0) * (x1 - x0))
	if o.a.CountIncludePad {
		div = float64(o.kh * o.kw)
	}
	if div == 0 {
		div = 1
	}
	if o.simd && y0 < y1 && x0 < x1 {
		at := &s[(y0*o.W+x0)*4]
		if isMax {
			poolMaxRowNC4(&out[0], at, n, y1-y0, x1-x0, o.W*16, step*4)
		} else {
			poolAvgRowNC4(&out[0], at, n, y1-y0, x1-x0, o.W*16, step*4, div)
		}
		return
	}
	for j := range n {
		if isMax {
			poolMax(out[j*4:j*4+4], s[j*step:], o.W, y0, y1, x0, x1)
		} else {
			poolAvg(out[j*4:j*4+4], s[j*step:], o.W, y0, y1, x0, x1, div)
		}
	}
}

// poolMax writes the per-channel maximum of the window [y0, y1) × [x0, x1)
// of one channel pack, -Inf for an empty one; `v > m` keeps the first of
// equal values and never picks a NaN. Maxima held as bit patterns, and each
// candidate's bits taken before the comparison, let the compiler select with
// a conditional move: as branches these comparisons are unpredictable. It is
// the portable form and the bitwise oracle of poolMaxRowNC4.
func poolMax(out, s []float32, W, y0, y1, x0, x1 int) {
	negInf := math.Float32bits(float32(math.Inf(-1)))
	m0, m1, m2, m3 := negInf, negInf, negInf, negInf
	for iy := y0; iy < y1 && x0 < x1; iy++ {
		row := s[(iy*W+x0)*4 : (iy*W+x1)*4]
		for ; len(row) >= 4; row = row[4:] {
			v0, v1, v2, v3 := row[0], row[1], row[2], row[3]
			b0, b1, b2, b3 := math.Float32bits(v0), math.Float32bits(v1), math.Float32bits(v2), math.Float32bits(v3)
			if v0 > math.Float32frombits(m0) {
				m0 = b0
			}
			if v1 > math.Float32frombits(m1) {
				m1 = b1
			}
			if v2 > math.Float32frombits(m2) {
				m2 = b2
			}
			if v3 > math.Float32frombits(m3) {
				m3 = b3
			}
		}
	}
	out[0], out[1], out[2], out[3] = math.Float32frombits(m0), math.Float32frombits(m1), math.Float32frombits(m2), math.Float32frombits(m3)
}

// poolAvg writes the per-channel float64 sum of the window over div, summed
// in (ky, kx) order: the portable form and the bitwise oracle of
// poolAvgRowNC4.
func poolAvg(out, s []float32, W, y0, y1, x0, x1 int, div float64) {
	var a0, a1, a2, a3 float64
	for iy := y0; iy < y1 && x0 < x1; iy++ {
		row := s[(iy*W+x0)*4 : (iy*W+x1)*4]
		for ; len(row) >= 4; row = row[4:] {
			a0 += float64(row[0])
			a1 += float64(row[1])
			a2 += float64(row[2])
			a3 += float64(row[3])
		}
	}
	out[0], out[1], out[2], out[3] = float32(a0/div), float32(a1/div), float32(a2/div), float32(a3/div)
}

// ActivationKind enumerates unary activations.
type ActivationKind uint8

const (
	ActReLU ActivationKind = iota
	ActReLU6
	ActSigmoid
	ActTanh
)

// ActivationOp is the prepared elementwise activation execution over the
// source's physical buffer at its current shape. For NC4HW4 tensors the
// padding lanes are transformed too, which is harmless: they are never read
// logically and ReLU/ReLU6 keep them zero.
type ActivationOp struct {
	kind     ActivationKind
	src, dst *tensor.Tensor
	s, d     []float32 // this run's buffers, set by Run
}

// NewActivationOp binds an activation execution.
func NewActivationOp(dst, src *tensor.Tensor, kind ActivationKind) *ActivationOp {
	return &ActivationOp{kind: kind, src: src, dst: dst}
}

// Run executes the activation on the pool.
func (o *ActivationOp) Run(p *sched.Pool) {
	o.s, o.d = o.src.Data(), o.dst.Data()
	p.Run(len(o.s), sched.Chunk(len(o.s), p.Lanes(), elemChunksPerLane), o)
}

// RunChunk implements sched.Task over flat element indices.
func (o *ActivationOp) RunChunk(_, start, end int) {
	s, d := o.s, o.d
	switch o.kind {
	case ActReLU:
		for i := start; i < end; i++ {
			d[i] = relu(s[i])
		}
	case ActReLU6:
		for i := start; i < end; i++ {
			d[i] = relu6(s[i])
		}
	case ActSigmoid:
		for i := start; i < end; i++ {
			d[i] = float32(1 / (1 + math.Exp(-float64(s[i]))))
		}
	case ActTanh:
		for i := start; i < end; i++ {
			d[i] = float32(math.Tanh(float64(s[i])))
		}
	}
}

// EltwiseOp is the prepared binary elementwise reduction over ≥2 inputs
// with identical shapes and layouts; dst may alias inputs[0]. The element
// count is re-derived from the destination's shape at every Run (not from
// buffer length) so the op stays correct when a dynamic-shape session
// shrinks the logical extent below the planned capacity.
type EltwiseOp struct {
	a      graph.EltwiseAttrs
	dst    *tensor.Tensor
	inputs []*tensor.Tensor
	simd   bool // matmul.HaveAVX2: a sum runs addPS

	d   []float32 // this run's buffers, set by Run
	ins [][]float32
}

// NewEltwiseOp binds an eltwise execution.
func NewEltwiseOp(dst *tensor.Tensor, inputs []*tensor.Tensor, a *graph.EltwiseAttrs) *EltwiseOp {
	return &EltwiseOp{a: *a, dst: dst, inputs: inputs, ins: make([][]float32, len(inputs)), simd: matmul.HaveAVX2()}
}

// Run executes the reduction on the pool.
func (o *EltwiseOp) Run(p *sched.Pool) {
	o.d = o.dst.Data()
	for i, in := range o.inputs {
		o.ins[i] = in.Data()
	}
	total := o.dst.PhysicalLen()
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), o)
}

// RunChunk implements sched.Task over flat element indices.
func (o *EltwiseOp) RunChunk(_, start, end int) {
	d := o.d
	copy(d[start:end], o.ins[0][start:end])
	for _, s := range o.ins[1:] {
		switch o.a.Type {
		case graph.EltSum:
			addInto(d[start:end], s[start:end], false, o.simd)
		case graph.EltProd:
			for i := start; i < end; i++ {
				d[i] *= s[i]
			}
		case graph.EltMax:
			for i := start; i < end; i++ {
				if s[i] > d[i] {
					d[i] = s[i]
				}
			}
		case graph.EltSub:
			for i := start; i < end; i++ {
				d[i] -= s[i]
			}
		}
	}
	if o.a.ReLU {
		for i := start; i < end; i++ {
			d[i] = relu(d[i])
		}
	}
}

// addInto adds s to d element by element, d's element the first operand of
// each add, or s's with sFirst: the operand whose NaN payload the sum of two
// NaNs keeps. With simd, addPS takes whole groups of eight and the Go loops
// the rest, the same adds.
func addInto(d, s []float32, sFirst, simd bool) {
	s = s[:len(d)]
	i := 0
	if simd && len(d) >= 8 {
		i = len(d) &^ 7
		addPS(&d[0], &s[0], i/8, sFirst)
	}
	if !sFirst {
		for ; i < len(d); i++ {
			d[i] += s[i]
		}
		return
	}
	for ; i < len(d); i++ {
		v := s[i]
		v += d[i]
		d[i] = v
	}
}

// ScaleOp is the prepared per-channel y = x·scale + shift execution on an
// NC4HW4 tensor; BatchNorm folds into this form at prepare time. The
// parameters are packed to padded channel blocks once at creation (the seed
// re-packed them on every run).
type ScaleOp struct {
	src, dst *tensor.Tensor
	ps, pb   []float32 // padded-lane-safe packed parameters
	c4       int

	s, d []float32 // this run's buffers and pixel count, set by Run
	hw   int
}

// NewScaleOp binds a scale execution.
func NewScaleOp(dst, src *tensor.Tensor, scale, shift []float32) *ScaleOp {
	c4 := tensor.UpDiv(src.Channels(), 4)
	o := &ScaleOp{
		src: src, dst: dst,
		ps: make([]float32, c4*4), pb: make([]float32, c4*4),
		c4: c4,
	}
	copy(o.ps, scale)
	if shift != nil {
		copy(o.pb, shift)
	}
	return o
}

// Run executes the scale on the pool.
func (o *ScaleOp) Run(p *sched.Pool) {
	o.s, o.d = o.src.Data(), o.dst.Data()
	o.hw = o.src.Height() * o.src.Width()
	total := o.src.Batch() * o.c4
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), o)
}

// RunChunk implements sched.Task over (batch, channel-block) items.
func (o *ScaleOp) RunChunk(_, start, end int) {
	s, d := o.s, o.d
	for item := start; item < end; item++ {
		cz := item % o.c4
		s0, s1, s2, s3 := o.ps[cz*4], o.ps[cz*4+1], o.ps[cz*4+2], o.ps[cz*4+3]
		b0, b1, b2, b3 := o.pb[cz*4], o.pb[cz*4+1], o.pb[cz*4+2], o.pb[cz*4+3]
		off := item * o.hw * 4
		for p := 0; p < o.hw; p++ {
			i := off + p*4
			d[i] = float32(s[i]*s0) + b0 // multiply and add rounded apart, as on amd64
			d[i+1] = float32(s[i+1]*s1) + b1
			d[i+2] = float32(s[i+2]*s2) + b2
			d[i+3] = float32(s[i+3]*s3) + b3
		}
	}
}

// PadOp is the prepared spatial zero-padding execution on NC4HW4 tensors.
type PadOp struct {
	a        graph.PaddingAttrs
	src, dst *tensor.Tensor

	s, d         []float32 // this run's buffers and geometry, set by Run
	H, W, OH, OW int
}

// NewPadOp binds a padding execution.
func NewPadOp(dst, src *tensor.Tensor, a *graph.PaddingAttrs) *PadOp {
	return &PadOp{a: *a, src: src, dst: dst}
}

// Run executes the padding on the pool.
func (o *PadOp) Run(p *sched.Pool) {
	o.s, o.d = o.src.Data(), o.dst.Data()
	o.H, o.W, o.OH, o.OW = o.src.Height(), o.src.Width(), o.dst.Height(), o.dst.Width()
	o.dst.Zero()
	total := o.src.Batch() * tensor.UpDiv(o.src.Channels(), 4)
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), o)
}

// RunChunk implements sched.Task over (batch, channel-block) items.
func (o *PadOp) RunChunk(_, start, end int) {
	s, d := o.s, o.d
	for item := start; item < end; item++ {
		srcOff := item * o.H * o.W * 4
		dstOff := item * o.OH * o.OW * 4
		for y := 0; y < o.H; y++ {
			srcRow := srcOff + y*o.W*4
			dstRow := dstOff + ((y+o.a.Top)*o.OW+o.a.Left)*4
			copy(d[dstRow:dstRow+o.W*4], s[srcRow:srcRow+o.W*4])
		}
	}
}

// ConcatChannel concatenates along the channel axis. When every input's
// channel count is a multiple of the pack factor, blocks are copied
// wholesale; otherwise a generic per-element path repacks. Allocation-free.
func ConcatChannel(dst *tensor.Tensor, inputs []*tensor.Tensor) {
	if dst.Layout() == tensor.NC4HW4 {
		allAligned := true
		for _, in := range inputs {
			if in.Channels()%4 != 0 || in.Layout() != tensor.NC4HW4 {
				allAligned = false
				break
			}
		}
		if allAligned {
			N := dst.Batch()
			H, W := dst.Height(), dst.Width()
			dc4 := tensor.UpDiv(dst.Channels(), 4)
			d := dst.Data()
			czOff := 0
			for _, in := range inputs {
				ic4 := in.Channels() / 4
				s := in.Data()
				for n := 0; n < N; n++ {
					for cz := 0; cz < ic4; cz++ {
						srcOff := ((n*ic4 + cz) * H * W) * 4
						dstOff := ((n*dc4 + czOff + cz) * H * W) * 4
						copy(d[dstOff:dstOff+H*W*4], s[srcOff:srcOff+H*W*4])
					}
				}
				czOff += ic4
			}
			return
		}
	}
	// Generic path.
	cOff := 0
	for _, in := range inputs {
		N, C, H, W := in.Batch(), in.Channels(), in.Height(), in.Width()
		for n := 0; n < N; n++ {
			for c := 0; c < C; c++ {
				for y := 0; y < H; y++ {
					for x := 0; x < W; x++ {
						dst.Set(n, cOff+c, y, x, in.At(n, c, y, x))
					}
				}
			}
		}
		cOff += C
	}
}

// ConcatAxis concatenates along an arbitrary axis on NCHW buffers.
func ConcatAxis(dst *tensor.Tensor, inputs []*tensor.Tensor, axis int) {
	shape := dst.Shape()
	outer := 1
	for _, v := range shape[:axis] {
		outer *= v
	}
	innerDst := 1
	for _, v := range shape[axis:] {
		innerDst *= v
	}
	d := dst.Data()
	off := 0
	for _, in := range inputs {
		is := in.Shape()
		innerSrc := 1
		for _, v := range is[axis:] {
			innerSrc *= v
		}
		s := in.Data()
		for o := 0; o < outer; o++ {
			copy(d[o*innerDst+off:o*innerDst+off+innerSrc], s[o*innerSrc:(o+1)*innerSrc])
		}
		off += innerSrc
	}
}

// FoldBatchNorm converts BatchNorm constants into (scale, shift) pairs:
// y = gamma·(x-mean)/sqrt(var+eps) + beta = x·s + b.
func FoldBatchNorm(gamma, beta, mean, variance []float32, eps float32) (scale, shift []float32) {
	n := len(gamma)
	scale = make([]float32, n)
	shift = make([]float32, n)
	for i := 0; i < n; i++ {
		s := gamma[i] / float32(math.Sqrt(float64(variance[i]+eps)))
		scale[i] = s
		shift[i] = beta[i] - float32(s*mean[i]) // not fused on arm64
	}
	return scale, shift
}

// InnerProduct is the prepared fully-connected kernel: a [batch, features] ×
// [features, out] GEMM on the transposed, panel-packed weight.
type InnerProduct struct {
	attrs    graph.InnerProductAttrs
	features int
	packed   *matmul.PackedB
	bias     []float32

	rs ipRun
}

type ipRun struct {
	s, d  []float32
	batch int
}

// PrepareInnerProduct packs the [out, features] weight into GEMM panels as
// the [features][out] right operand.
func PrepareInnerProduct(weight, bias *tensor.Tensor, a *graph.InnerProductAttrs) *InnerProduct {
	out, features := weight.Dim(0), weight.Dim(1)
	return &InnerProduct{attrs: *a, features: features,
		packed: matmul.PackWeight(weight.Data(), out, features, 1),
		bias:   paddedBias(bias, tensor.UpDiv(out, matmul.PanelWidth)*matmul.PanelWidth)}
}

// Share returns a kernel over ip's prepared weight with run state of its own.
func (ip *InnerProduct) Share() *InnerProduct {
	s := *ip
	s.rs = ipRun{}
	return &s
}

// Run executes the FC layer on NCHW buffers (src flattened per batch).
func (ip *InnerProduct) Run(dst, src *tensor.Tensor, p *sched.Pool) {
	ip.rs = ipRun{s: src.Data(), d: dst.Data(), batch: src.Dim(0)}
	p.Run(ip.rs.batch, sched.Chunk(ip.rs.batch, p.Lanes(), 1), ip)
}

// RunChunk implements sched.Task over batch rows: the row-block GEMM with
// the bias and activation in its epilogue.
func (ip *InnerProduct) RunChunk(_, start, end int) {
	r := &ip.rs
	out := ip.attrs.OutputCount
	lo, hi := clampBounds(ip.attrs.ReLU, false)
	ip.packed.MulBiasInto(r.d[start*out:end*out], r.s[start*ip.features:end*ip.features], end-start, ip.bias, lo, hi)
}

// --- function forms (the reference interpreter) --------------------------

// Activation applies a unary activation elementwise over the physical
// buffer.
func Activation(dst, src *tensor.Tensor, kind ActivationKind, p *sched.Pool) {
	NewActivationOp(dst, src, kind).Run(p)
}

// Eltwise applies a binary elementwise reduction over ≥2 inputs with
// identical shapes and layouts, writing into dst (which may alias inputs[0]).
func Eltwise(dst *tensor.Tensor, inputs []*tensor.Tensor, a *graph.EltwiseAttrs, p *sched.Pool) {
	NewEltwiseOp(dst, inputs, a).Run(p)
}
