package quant

import (
	"math"
	"sort"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// The paper's future work item (2): "integrating model compression tools
// (e.g. pruning) to slim the model on the fly". This file implements
// magnitude pruning: per filter tensor, the smallest-magnitude fraction of
// weights is zeroed. Combined with int8 quantization, sparse + quantized
// models compress well and the zero weights are skipped by the GEMM kernels'
// zero-test fast path.

// PruneReport summarizes a pruning pass.
type PruneReport struct {
	TensorsPruned int
	WeightsTotal  int
	WeightsZeroed int
}

// Sparsity returns the achieved zero fraction.
func (r PruneReport) Sparsity() float64 {
	if r.WeightsTotal == 0 {
		return 0
	}
	return float64(r.WeightsZeroed) / float64(r.WeightsTotal)
}

// PruneTensor zeroes the fraction of t's entries with the smallest
// magnitudes (per-tensor global magnitude pruning). Returns how many entries
// were zeroed. fraction is clamped to [0, 1].
func PruneTensor(t *tensor.Tensor, fraction float64) int {
	if fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	d := t.Data()
	n := len(d)
	cut := int(float64(n) * fraction)
	if cut == 0 {
		return 0
	}
	mags := make([]float64, n)
	for i, v := range d {
		mags[i] = math.Abs(float64(v))
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	threshold := sorted[cut-1]
	zeroed := 0
	for i := range d {
		if mags[i] <= threshold && zeroed < cut {
			d[i] = 0
			zeroed++
		}
	}
	return zeroed
}

// PruneWeights magnitude-prunes every Conv2D/InnerProduct filter in the
// graph to the target sparsity. Biases and normalization constants are left
// intact. Weights already quantized to int8 are skipped.
func PruneWeights(g *graph.Graph, sparsity float64) PruneReport {
	var rep PruneReport
	seen := map[string]bool{}
	for _, n := range g.Nodes {
		if n.Op != graph.OpConv2D && n.Op != graph.OpDeconv2D && n.Op != graph.OpInnerProduct {
			continue
		}
		if len(n.WeightNames) == 0 {
			continue
		}
		name := n.WeightNames[0]
		if seen[name] {
			continue
		}
		seen[name] = true
		w := g.Weights[name]
		if w.DType() != tensor.Float32 {
			continue
		}
		rep.TensorsPruned++
		rep.WeightsTotal += w.NumElements()
		rep.WeightsZeroed += PruneTensor(w, sparsity)
	}
	return rep
}
