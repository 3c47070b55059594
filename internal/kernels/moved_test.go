package kernels

import (
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// TestOpsReadTheirBuffersAtRun: an op takes its tensors' buffers at each
// Run, not when it is built. After a first run every bound activation moves
// to another offset of a larger buffer (SetBoundedView, as an in-place
// concat's view moves with its shape) and its old place is overwritten; the
// second run must read and write the new places, bit for bit what an op
// built over the moved tensors computes.
func TestOpsReadTheirBuffersAtRun(t *testing.T) {
	type runner interface{ Run(*sched.Pool) }
	pool := testPool(t, 2)
	w, bias := tensor.NewRandom(3, 0.3, 16, 24), tensor.NewRandom(4, 0.1, 24)
	packed := matmul.PackB(w.Data(), 16, 24)
	gamma, beta := tensor.NewRandom(5, 0.5, 16), tensor.NewRandom(6, 0.1, 16)
	cases := []struct {
		name  string
		ins   [][]int
		out   []int
		build func(dst *tensor.Tensor, in []*tensor.Tensor) runner
	}{
		{"eltwise", [][]int{{2, 5, 16}, {2, 5, 16}}, []int{2, 5, 16}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewEltwiseOp(d, in, &graph.EltwiseAttrs{Type: graph.EltSum, ReLU: true})
		}},
		{"layernorm", [][]int{{2, 5, 16}}, []int{2, 5, 16}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewLayerNormOp(d, in[0], gamma, beta, &graph.LayerNormAttrs{Eps: 1e-5})
		}},
		{"gelu", [][]int{{2, 5, 16}}, []int{2, 5, 16}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewGELUOp(d, in[0])
		}},
		{"softmax", [][]int{{2, 5, 16}}, []int{2, 5, 16}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewSoftmaxOp(d, in[0])
		}},
		{"transpose", [][]int{{2, 5, 16}}, []int{2, 16, 5}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewTransposeOp(d, in[0], &graph.TransposeAttrs{Perm: []int{0, 2, 1}})
		}},
		{"matmul-weight", [][]int{{2, 5, 16}}, []int{2, 5, 24}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewMatMulWeightOp(d, in[0], nil, w, bias, &graph.MatMulAttrs{}, packed)
		}},
		{"matmul-qk", [][]int{{2, 5, 16}, {2, 6, 16}}, []int{2, 10, 6}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewMatMulBatchedOp(d, in[0], in[1], &graph.MatMulAttrs{Heads: 2, TransposeB: true, Scale: 0.25})
		}},
		{"matmul-av", [][]int{{2, 10, 6}, {2, 6, 16}}, []int{2, 5, 16}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			return NewMatMulBatchedOp(d, in[0], in[1], &graph.MatMulAttrs{Heads: 2})
		}},
		{"attention", [][]int{{2, 5, 16}, {2, 6, 16}, {2, 6, 16}}, []int{2, 5, 16}, func(d *tensor.Tensor, in []*tensor.Tensor) runner {
			ws := make([]float32, AttentionWorkspaceFloats(6, 8, pool.Lanes()))
			return NewAttentionOp(d, in[0], in[1], in[2], &graph.AttentionAttrs{Heads: 2, QKScale: 0.25}, ws, pool.Lanes())
		}},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ins := make([]*tensor.Tensor, len(c.ins))
			for j, s := range c.ins {
				ins[j] = tensor.NewRandom(uint64(10*i+j+1), 1, s...)
			}
			dst := tensor.New(c.out...)
			op := c.build(dst, ins)
			op.Run(pool)
			for _, tt := range append(ins, dst) {
				old := tt.Data()
				base := make([]float32, len(old)+7)
				if tt != dst {
					copy(base[3:], old)
				}
				if err := tt.SetBoundedView(base, 3, tt.Shape()); err != nil {
					t.Fatal(err)
				}
				for k := range old {
					old[k] = 9
				}
			}
			op.Run(pool)
			want := tensor.New(c.out...)
			c.build(want, ins).Run(pool)
			got := dst.Data()
			for k, v := range want.Data() {
				if math.Float32bits(got[k]) != math.Float32bits(v) {
					t.Fatalf("element %d after the move = %v, want %v", k, got[k], v)
				}
			}
		})
	}
}
