package models

import (
	"math"

	"mnn/internal/graph"
)

// Transformer dimensions. Tiny on purpose: the built-in exists to exercise
// the dynamic-shape machinery and the attention op set end-to-end, not to
// chase accuracy. The input is [batch, seq, TransformerDim] token embeddings
// (tokenization happens outside the engine); the output is per-sequence
// class probabilities [batch, seq, TransformerClasses] after a last-axis
// softmax, so every tensor in the graph is rank 3 and stays in the flat
// NCHW layout end to end.
const (
	TransformerDim     = 32 // model width D
	TransformerHeads   = 4  // attention heads H (head width D/H = 8)
	TransformerLayers  = 2  // encoder blocks
	TransformerSeqLen  = 16 // default (declared) sequence length
	TransformerClasses = 10
)

// Transformer builds the tiny pre-LN transformer encoder: per block
// LN → multi-head self-attention → residual → LN → FFN(GELU) → residual,
// then a classifier MatMul and last-axis softmax.
func Transformer() *graph.Graph {
	b := newBuilder("transformer", 400)
	d := TransformerDim
	x := b.input("tokens", 1, TransformerSeqLen, d)
	for l := 0; l < TransformerLayers; l++ {
		x = b.encoderBlock(blockName("enc", l), x, d)
	}
	logits := b.matmulWeight("classifier", x, d, TransformerClasses)
	out := b.softmax("prob", logits, -1)
	return b.finish(out)
}

func blockName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// encoderBlock appends one pre-LN encoder block reading activation in.
func (b *builder) encoderBlock(name, in string, d int) string {
	h := TransformerHeads
	scale := float32(1 / math.Sqrt(float64(d/h)))

	ln1 := b.layerNorm(name+"_ln1", in, d)
	q := b.matmulWeight(name+"_q", ln1, d, d)
	k := b.matmulWeight(name+"_k", ln1, d, d)
	v := b.matmulWeight(name+"_v", ln1, d, d)
	scores := b.matmulQK(name+"_qk", q, k, h, scale)
	attn := b.softmax(name+"_attn", scores, -1)
	ctx := b.matmulAV(name+"_av", attn, v, h)
	proj := b.matmulWeight(name+"_proj", ctx, d, d)
	res1 := b.add(name+"_res1", in, proj)

	ln2 := b.layerNorm(name+"_ln2", res1, d)
	ff1 := b.matmulWeight(name+"_ff1", ln2, d, 4*d)
	act := b.gelu(name+"_gelu", ff1)
	ff2 := b.matmulWeight(name+"_ff2", act, 4*d, d)
	return b.add(name+"_res2", res1, ff2)
}

func (b *builder) layerNorm(name, in string, d int) string {
	g := b.weight(name+"_gamma", 0, d)
	gt := b.g.Weights[g]
	for i := range gt.Data() {
		gt.Data()[i] = float32(gt.Data()[i]*0.1) + 1 // not fused: the same weights on every architecture
	}
	beta := b.weight(name+"_beta", 0.1, d)
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpLayerNorm,
		Inputs: []string{in}, Outputs: []string{name},
		WeightNames: []string{g, beta},
		Attrs:       &graph.LayerNormAttrs{Eps: 1e-5}})
	return name
}

func (b *builder) gelu(name, in string) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpGELU,
		Inputs: []string{in}, Outputs: []string{name}})
	return name
}

// matmulWeight appends a weight-form MatMul [.., k] × W[k, n] + bias[n].
func (b *builder) matmulWeight(name, in string, k, n int) string {
	w := b.weight(name+"_w", heScale(k), k, n)
	bias := b.weight(name+"_b", 0.05, n)
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpMatMul,
		Inputs: []string{in}, Outputs: []string{name},
		WeightNames: []string{w, bias},
		Attrs:       &graph.MatMulAttrs{}})
	return name
}

// matmulQK appends the scaled Q·Kᵀ attention-score MatMul.
func (b *builder) matmulQK(name, q, k string, heads int, scale float32) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpMatMul,
		Inputs: []string{q, k}, Outputs: []string{name},
		Attrs: &graph.MatMulAttrs{Heads: heads, TransposeB: true, Scale: scale}})
	return name
}

// matmulAV appends the attention-weighted value aggregation MatMul.
func (b *builder) matmulAV(name, a, v string, heads int) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpMatMul,
		Inputs: []string{a, v}, Outputs: []string{name},
		Attrs: &graph.MatMulAttrs{Heads: heads}})
	return name
}
