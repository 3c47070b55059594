package kernels

import (
	"math"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Prepared kernels for the transformer op set. They follow the same pattern
// as ops.go — bind once, Run dispatches RunChunk onto the persistent pool,
// zero per-run allocation — with one addition for dynamic shapes: geometry
// (row counts, sequence lengths) is re-derived from the bound tensors'
// *current* shapes at every Run, never captured from buffer lengths. A
// dynamic-shape session mutates those shapes in place between runs; the
// planned buffers keep their max-shape capacity underneath.
//
// Batched ≡ unbatched bitwise: every op below either chunks work along a
// unit whose result is computed independently of all other units (rows for
// LayerNorm/Softmax/weight-form MatMul via matmul.PackedB's chunk-invariant
// contract, (batch, head) pairs for attention, fused or not, single
// elements for GELU/Transpose), so batch concatenation and worker-count
// changes cannot move a single float. The assembly under GELU, softmax,
// LayerNorm and the fused attention (exp_amd64.s) repeats its scalar twin's
// roundings per element — softmaxRows8, layerNormRows8 and attentionRows8
// put one row in each lane, so a row's reductions keep their order — and
// the weight MatMul's bias is the GEMM micro-kernels' own epilogue
// (MulBiasInto), so neither can the SIMD level. A session runs attention as
// one AttentionOp per block (optimizer.FuseAttention); MatMulOp's QK and AV
// forms and SoftmaxOp run it in three steps, on scalar dotCols, only for a
// graph that reads the scores or the probabilities.

// leadingRows is the number of last-axis rows of a tensor of this shape.
func leadingRows(shape []int) int { return tensor.NumElements(shape[:len(shape)-1]) }

// maxTransposeRank bounds Transpose to fixed-size stride arrays so RunChunk
// stays allocation-free.
const maxTransposeRank = 6

// LayerNormOp normalizes over the last axis with per-feature gamma/beta
// (layerNormRows).
type LayerNormOp struct {
	eps        float32
	dst, src   *tensor.Tensor
	s, d       []float32
	gamma, bet []float32

	d1   int  // last-axis extent (static: feature dim never changes)
	simd bool // matmul.HaveAVX2: the rows run layerNormRows8
}

// NewLayerNormOp binds a layer-norm execution.
func NewLayerNormOp(dst, src, gamma, beta *tensor.Tensor, a *graph.LayerNormAttrs) *LayerNormOp {
	shape := src.Shape()
	return &LayerNormOp{
		eps: a.Eps, dst: dst, src: src,
		s: src.Data(), d: dst.Data(),
		gamma: gamma.Data(), bet: beta.Data(),
		d1: shape[len(shape)-1], simd: matmul.HaveAVX2(),
	}
}

// Run executes the layer norm on the pool, chunked over rows.
func (o *LayerNormOp) Run(p *sched.Pool) {
	rows := leadingRows(o.src.Shape())
	p.Run(rows, rowChunk(rows, p.Lanes(), o.simd), o)
}

// RunChunk implements sched.Task over rows: on the assembly, or its twin.
func (o *LayerNormOp) RunChunk(_, start, end int) {
	d1 := o.d1
	if o.simd && d1 > 0 {
		layerNormRows8(&o.d[start*d1], &o.s[start*d1], d1, end-start, &o.gamma[0], &o.bet[0], o.eps)
		return
	}
	layerNormRows(o.d[start*d1:end*d1], o.s[start*d1:end*d1], d1, o.gamma, o.bet, o.eps)
}

// rowChunk is the chunk of the row ops: whole groups of eight rows where
// the assembly runs, which takes eight rows for little more than one.
func rowChunk(rows, lanes int, simd bool) int {
	c := sched.Chunk(rows, lanes, elemChunksPerLane)
	if simd {
		c = (c + 7) &^ 7
	}
	return c
}

// layerNormRows normalizes each row of d1 floats of src into dst: the mean
// and the variance in float64, summed in ascending order, then in float32
// ((v − mean)·inv)·γ + β, inv = 1/√(variance + eps). Every multiply and add
// is rounded on its own — the conversions stop a fusing compiler (arm64) —
// so a row's bits depend on that row alone; layerNormRows8 repeats them on
// eight rows at a time.
func layerNormRows(dst, src []float32, d1 int, gamma, beta []float32, eps float32) {
	for ; len(src) > 0; src, dst = src[d1:], dst[d1:] {
		row := src[:d1]
		var mean float64
		for _, v := range row {
			mean = addF(mean, float64(v))
		}
		mean /= float64(d1)
		var variance float64
		for _, v := range row {
			dv := float64(v) - mean
			variance = addF(variance, float64(dv*dv))
		}
		variance /= float64(d1)
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		for i, v := range row {
			dst[i] = addF(float32(mulF(mulF(v-float32(mean), inv), gamma[i])), beta[i])
		}
	}
}

// GELUOp applies the tanh-approximated GELU elementwise: geluf32 of every
// element (expf.go), whose bits depend on that element alone.
type GELUOp struct {
	dst, src *tensor.Tensor
	s, d     []float32
	simd     bool // matmul.HaveAVX2: whole blocks of eight run geluPS
}

// NewGELUOp binds a GELU execution.
func NewGELUOp(dst, src *tensor.Tensor) *GELUOp {
	return &GELUOp{dst: dst, src: src, s: src.Data(), d: dst.Data(), simd: matmul.HaveAVX2()}
}

// Run executes the GELU on the pool. PhysicalLen covers NC4HW4 padding
// lanes too, which is harmless: GELU(0) == 0 keeps them zero.
func (o *GELUOp) Run(p *sched.Pool) {
	total := o.src.PhysicalLen()
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), o)
}

// RunChunk implements sched.Task over flat element indices.
func (o *GELUOp) RunChunk(_, start, end int) {
	mapInto(o.d[start:end], o.s[start:end], o.simd, geluPS, geluf32)
}

// SoftmaxOp is the prepared last-axis softmax on flat tensors, chunked over
// rows. Only axis == rank-1 (or -1) reaches this op; other axes run through
// SoftmaxRef. Per row, in float32: the maximum (a `>` scan from −Inf, which
// passes over NaN), x − max, expf32 of that, the sum in ascending order, one
// division per element — so a row's bits depend on that row alone. A row
// holding a NaN, or nothing but −Inf, comes out all NaN, as from SoftmaxRef.
type SoftmaxOp struct {
	dst, src *tensor.Tensor
	s, d     []float32
	simd     bool // matmul.HaveAVX2: the rows run softmaxRows8
}

// NewSoftmaxOp binds a last-axis softmax execution.
func NewSoftmaxOp(dst, src *tensor.Tensor) *SoftmaxOp {
	return &SoftmaxOp{dst: dst, src: src, s: src.Data(), d: dst.Data(), simd: matmul.HaveAVX2()}
}

// Run executes the softmax on the pool.
func (o *SoftmaxOp) Run(p *sched.Pool) {
	rows := leadingRows(o.src.Shape())
	p.Run(rows, rowChunk(rows, p.Lanes(), o.simd), o)
}

// RunChunk implements sched.Task over rows: on the assembly, or its twin.
func (o *SoftmaxOp) RunChunk(_, start, end int) {
	d1 := o.src.Dim(o.src.Rank() - 1)
	if o.simd && d1 > 0 {
		softmaxRows8(&o.d[start*d1], &o.s[start*d1], d1, end-start)
		return
	}
	softmaxRows(o.d[start*d1:end*d1], o.s[start*d1:end*d1], d1)
}

// softmaxRows is the softmax of each row of d1 floats of src into dst, as
// SoftmaxOp describes; softmaxRows8 repeats it on eight rows at a time.
func softmaxRows(dst, src []float32, d1 int) {
	out := dst[:len(src)]
	for r := 0; r < len(src); r += d1 {
		row := src[r : r+d1]
		maxV := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		for i, v := range row {
			out[r+i] = expf32(v - maxV)
		}
	}
	for ; len(out) > 0; out = out[d1:] {
		row := out[:d1]
		var sum float32
		for _, e := range row {
			sum = addF(sum, e)
		}
		for i, e := range row {
			row[i] = e / sum
		}
	}
}

// TransposeOp permutes axes of a flat tensor, chunked over output elements.
type TransposeOp struct {
	dst, src *tensor.Tensor
	s, d     []float32
	perm     [maxTransposeRank]int
	rank     int

	inStride, outStride [maxTransposeRank]int
}

// NewTransposeOp binds a transpose execution.
func NewTransposeOp(dst, src *tensor.Tensor, a *graph.TransposeAttrs) *TransposeOp {
	o := &TransposeOp{dst: dst, src: src, s: src.Data(), d: dst.Data(), rank: len(a.Perm)}
	copy(o.perm[:], a.Perm)
	return o
}

// Run executes the transpose on the pool. Strides are re-derived from the
// current shapes here (once per run, not per chunk).
func (o *TransposeOp) Run(p *sched.Pool) {
	in, out := o.src.Shape(), o.dst.Shape()
	acc := 1
	for i := o.rank - 1; i >= 0; i-- {
		o.inStride[i] = acc
		acc *= in[i]
	}
	total := 1
	for i := o.rank - 1; i >= 0; i-- {
		o.outStride[i] = total
		total *= out[i]
	}
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), o)
}

// RunChunk implements sched.Task over flat output indices.
func (o *TransposeOp) RunChunk(_, start, end int) {
	for flat := start; flat < end; flat++ {
		rem := flat
		srcOff := 0
		for j := 0; j < o.rank; j++ {
			srcOff += (rem / o.outStride[j]) * o.inStride[o.perm[j]]
			rem %= o.outStride[j]
		}
		o.d[flat] = o.s[srcOff]
	}
}

type matMulForm uint8

const (
	mmWeight matMulForm = iota // activation × packed constant weight
	mmQK                       // [B,LA,D] × [B,LB,D]ᵀ per head
	mmAV                       // [B,H·LA,LB] × [B,LB,D] per head
)

// MatMulOp covers the three MatMul forms of graph.MatMulAttrs. The weight
// form row-chunks MulBiasInto over the constant [K,N] weight's matmul.PackedB
// panels (bitwise chunk-invariant); the attention forms chunk over (batch,
// head) pairs and compute every output element as dotCols describes. A
// session runs them only where something reads the scores or the
// probabilities; everywhere else the triple is one AttentionOp.
type MatMulOp struct {
	form  matMulForm
	heads int
	scale float32 // resolved: 1 when attrs.Scale == 0

	dst, a, b *tensor.Tensor
	ad, bd, d []float32

	// Weight form only.
	k, n   int
	packed *matmul.PackedB
	bias   []float32
}

// NewMatMulWeightOp binds the weight form: src [.., M, K] × w [K, N] with
// optional bias [N], on packed, w's matmul.PackB form.
func NewMatMulWeightOp(dst, src, w, bias *tensor.Tensor, a *graph.MatMulAttrs, packed *matmul.PackedB) *MatMulOp {
	ws := w.Shape()
	o := &MatMulOp{
		form: mmWeight, scale: resolveScale(a.Scale),
		dst: dst, a: src, ad: src.Data(), d: dst.Data(),
		k: ws[0], n: ws[1], packed: packed,
	}
	if bias != nil {
		o.bias = paddedBias(bias, tensor.UpDiv(o.n, matmul.PanelWidth)*matmul.PanelWidth)
	}
	return o
}

// NewMatMulBatchedOp binds the QK (TransposeB) or AV form over two rank-3
// activations.
func NewMatMulBatchedOp(dst, a, b *tensor.Tensor, attrs *graph.MatMulAttrs) *MatMulOp {
	form := mmAV
	if attrs.TransposeB {
		form = mmQK
	}
	return &MatMulOp{
		form: form, heads: attrs.Heads, scale: resolveScale(attrs.Scale),
		dst: dst, a: a, b: b,
		ad: a.Data(), bd: b.Data(), d: dst.Data(),
	}
}

func resolveScale(s float32) float32 {
	if s == 0 {
		return 1
	}
	return s
}

// Run executes the GEMM on the pool.
func (o *MatMulOp) Run(p *sched.Pool) {
	total := o.a.Dim(0) * o.heads
	if o.form == mmWeight {
		total = leadingRows(o.a.Shape())
	}
	p.Run(total, sched.Chunk(total, p.Lanes(), 1), o)
}

// RunChunk implements sched.Task: rows for the weight form, (batch, head)
// pairs for the attention forms.
func (o *MatMulOp) RunChunk(_, start, end int) {
	switch o.form {
	case mmWeight:
		o.runWeight(start, end)
	case mmQK:
		o.runQK(start, end)
	case mmAV:
		o.runAV(start, end)
	}
}

// runWeight adds the bias in the GEMM's own epilogue (MulBiasInto, no
// clamp); a scaled product is scaled first and gets its bias after, each a
// rounding of its own.
func (o *MatMulOp) runWeight(start, end int) {
	k, n := o.k, o.n
	d, a := o.d[start*n:end*n], o.ad[start*k:end*k]
	if o.scale == 1 {
		lo, hi := clampBounds(false, false)
		o.packed.MulBiasInto(d, a, end-start, o.bias, lo, hi)
		return
	}
	o.packed.MulInto(d, a, end-start)
	for i := range d {
		v := float32(d[i] * o.scale) // not fused into the add
		if o.bias != nil {
			v += o.bias[i%n]
		}
		d[i] = v
	}
}

// dotCols sets dst[j] = (Σ_p a[p]·b[p·ps + j·js]) · scale for j < n: p
// ascending over k terms from +0, multiply and add rounded separately, one
// multiply by scale at the end — the sequence of roundings both attention
// GEMMs have always had per output element, which attentionRows8 repeats.
func dotCols(dst, a, b []float32, k, n, ps, js int, scale float32) {
	for j := 0; j < n; j++ {
		col := b[j*js:]
		var acc float32
		for p, v := range a[:k] {
			acc = addF(acc, float32(mulF(v, col[p*ps])))
		}
		dst[j] = mulF(acc, scale)
	}
}

func (o *MatMulOp) runQK(start, end int) {
	la, lb, d, h := o.a.Dim(1), o.b.Dim(1), o.b.Dim(2), o.heads
	dh := d / h
	for item := start; item < end; item++ {
		b, hd := item/h, item%h
		q := o.ad[b*la*d+hd*dh:]
		k := o.bd[b*lb*d+hd*dh:]
		out := o.d[item*la*lb:]
		for i := 0; i < la; i++ {
			dotCols(out[i*lb:], q[i*d:], k, dh, lb, 1, d, o.scale)
		}
	}
}

func (o *MatMulOp) runAV(start, end int) {
	lb, d, h := o.b.Dim(1), o.b.Dim(2), o.heads
	la, dh := o.a.Dim(1)/h, d/h
	for item := start; item < end; item++ {
		b, hd := item/h, item%h
		v := o.bd[b*lb*d+hd*dh:]
		for i := 0; i < la; i++ {
			dotCols(o.d[(b*la+i)*d+hd*dh:], o.ad[(item*la+i)*lb:], v, lb, dh, d, 1, o.scale)
		}
	}
}

// AttentionOp is graph.OpAttention: per (batch, head) pair the QK MatMul,
// the last-axis softmax and the AV MatMul in one pass, the scores never
// leaving a lane's workspace. Every element keeps the unfused ops' exact
// sequence of roundings. The portable path is those ops' own loops composed
// per query row — dotCols, softmaxRows, dotCols — and is attentionRows8's
// oracle; the assembly runs eight query rows at a time, one per lane.
type AttentionOp struct {
	heads            int
	qkScale, avScale float32 // resolved: 1 for a zero attribute
	simd             bool    // matmul.HaveAVX2: the items run attentionRows8

	q, k          *tensor.Tensor // their current shapes give B, LA, LB and D
	d, qd, kd, vd []float32
	ws            []float32 // wsLane floats per pool lane
	wsLane        int
}

// AttentionWorkspaceFloats is what an AttentionOp over keys of length at
// most lb and heads dh wide needs on lanes lanes: per lane eight score rows
// and the eight query rows' columns of attentionRows8 (the portable path
// uses one score row of it).
func AttentionWorkspaceFloats(lb, dh, lanes int) int {
	return 8 * (lb + dh) * max(lanes, 1)
}

// NewAttentionOp binds a fused attention execution over q [B, LA, D], k and
// v [B, LB, D] into dst [B, LA, D], on ws of AttentionWorkspaceFloats at the
// planned (largest) LB and lanes lanes.
func NewAttentionOp(dst, q, k, v *tensor.Tensor, a *graph.AttentionAttrs, ws []float32, lanes int) *AttentionOp {
	return &AttentionOp{
		heads: a.Heads, qkScale: resolveScale(a.QKScale), avScale: resolveScale(a.AVScale),
		simd: matmul.HaveAVX2(),
		q:    q, k: k,
		d: dst.Data(), qd: q.Data(), kd: k.Data(), vd: v.Data(),
		ws: ws, wsLane: len(ws) / max(lanes, 1),
	}
}

// Run executes the attention on the pool, chunked over (batch, head) pairs.
func (o *AttentionOp) Run(p *sched.Pool) {
	total := o.q.Dim(0) * o.heads
	p.Run(total, sched.Chunk(total, p.Lanes(), 1), o)
}

// RunChunk implements sched.Task over (batch, head) pairs, on the worker's
// slice of the workspace.
func (o *AttentionOp) RunChunk(worker, start, end int) {
	la, lb, d, h := o.q.Dim(1), o.k.Dim(1), o.q.Dim(2), o.heads
	if la == 0 {
		return
	}
	dh := d / h
	ws := o.ws[worker*o.wsLane:][:o.wsLane]
	for item := start; item < end; item++ {
		b, hd := item/h, item%h
		q, out := o.qd[b*la*d+hd*dh:], o.d[b*la*d+hd*dh:]
		k, v := o.kd[b*lb*d+hd*dh:], o.vd[b*lb*d+hd*dh:]
		if o.simd && lb > 0 {
			attentionRows8(&out[0], &q[0], &k[0], &v[0], &ws[0], la, lb, dh, d, o.qkScale, o.avScale)
			continue
		}
		row := ws[:lb]
		for i := 0; i < la; i++ {
			dotCols(row, q[i*d:], k, dh, lb, 1, d, o.qkScale)
			softmaxRows(row, row, lb)
			dotCols(out[i*d:], row, v, lb, dh, d, 1, o.avScale)
		}
	}
}
