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
// contract, (batch, head) pairs for the attention GEMMs, single elements
// for GELU/Transpose), so batch concatenation and worker-count changes
// cannot move a single float. The assembly under GELU, softmax, LayerNorm
// and the attention GEMMs (exp_amd64.s) repeats its scalar twin's roundings
// per element — softmaxRows8 and layerNormRows8 put one row in each lane, so
// a row's reductions keep their order — and the weight MatMul's bias is the
// GEMM micro-kernels' own epilogue (MulBiasInto), so neither can the SIMD
// level.

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
			mean += float64(v)
		}
		mean /= float64(d1)
		var variance float64
		for _, v := range row {
			dv := float64(v) - mean
			variance += float64(dv * dv)
		}
		variance /= float64(d1)
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		for i, v := range row {
			dst[i] = float32((v-float32(mean))*inv*gamma[i]) + beta[i]
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
			sum += e
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
// panels (bitwise chunk-invariant); the attention forms chunk
// over (batch, head) pairs and compute every output element as dotCols
// describes, across output columns where they are contiguous.
type MatMulOp struct {
	form  matMulForm
	heads int
	scale float32 // resolved: 1 when attrs.Scale == 0
	simd  bool    // matmul.HaveAVX2: attention columns run dotCols8

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
		form: form, heads: attrs.Heads, scale: resolveScale(attrs.Scale), simd: matmul.HaveAVX2(),
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
// GEMMs have always had per output element, and which dotCols8 repeats on
// eight adjacent columns (js == 1) at a time, so simd does not change a bit.
func dotCols(dst, a, b []float32, k, n, ps, js int, scale float32, simd bool) {
	j := 0
	if simd && js == 1 && n >= 8 && k > 0 {
		j = n &^ 7
		dotCols8(&dst[0], &a[0], &b[0], k, ps, j/8, scale)
	}
	for ; j < n; j++ {
		col := b[j*js:]
		var acc float32
		for p, v := range a[:k] {
			acc += float32(v * col[p*ps])
		}
		dst[j] = acc * scale
	}
}

// qkTile is runQK's stack scratch in floats: the K slice of one (batch, head)
// pair transposed to [dh][key positions], as many positions at a time as fit
// (a multiple of eight), so that the output columns of a query row lie along
// a vector; and one output row of that width. Heads wider than qkTile/8 stay
// on dotCols' scalar columns, which read K in place.
const qkTile = 256

func (o *MatMulOp) runQK(start, end int) {
	la, lb, d, h := o.a.Dim(1), o.b.Dim(1), o.b.Dim(2), o.heads
	dh := d / h
	var tile, row [qkTile]float32
	w := 0 // key positions per tile; 0: the scalar route
	if o.simd && dh*8 <= qkTile {
		w = qkTile / dh &^ 7
	}
	for item := start; item < end; item++ {
		b, hd := item/h, item%h
		q := o.ad[b*la*d+hd*dh:]
		k := o.bd[b*lb*d+hd*dh:]
		out := o.d[item*la*lb:]
		if w == 0 {
			for i := 0; i < la; i++ {
				dotCols(out[i*lb:], q[i*d:], k, dh, lb, 1, d, o.scale, false)
			}
			continue
		}
		for j0 := 0; j0 < lb; j0 += w {
			n := min(w, lb-j0)
			n8 := (n + 7) &^ 7 // columns n..n8 of the tile are stale; their results are dropped
			for j := 0; j < n; j++ {
				for p, v := range k[(j0+j)*d:][:dh] {
					tile[p*n8+j] = v
				}
			}
			for i := 0; i < la; i++ {
				dotCols8(&row[0], &q[i*d], &tile[0], dh, n8, n8/8, o.scale)
				copy(out[i*lb+j0:][:n], row[:n])
			}
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
			dotCols(o.d[(b*la+i)*d+hd*dh:], o.ad[(item*la+i)*lb:], v, lb, dh, d, 1, o.scale, o.simd)
		}
	}
}
