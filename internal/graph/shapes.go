package graph

import (
	"fmt"

	"mnn/internal/tensor"
)

// ShapeMap maps activation tensor names to inferred shapes.
type ShapeMap map[string][]int

// InferShapes walks the graph in node order and computes the shape of every
// activation tensor. This is the first step of MNN's pre-inference: with a
// fixed input size, every intermediate extent — and therefore the entire
// memory plan — is known before any arithmetic runs (paper Section 3.2).
//
// overrideInputs optionally replaces declared input shapes (the "resize"
// path); pass nil to use the shapes recorded on Input nodes.
func InferShapes(g *Graph, overrideInputs map[string][]int) (ShapeMap, error) {
	shapes := ShapeMap{}
	for _, n := range g.Nodes {
		if err := inferNode(g, n, shapes, overrideInputs); err != nil {
			return nil, fmt.Errorf("shape inference: node %q (%v): %w", n.Name, n.Op, err)
		}
	}
	return shapes, nil
}

func inferNode(g *Graph, n *Node, shapes ShapeMap, overrides map[string][]int) error {
	in := func(i int) ([]int, error) {
		if i >= len(n.Inputs) {
			return nil, fmt.Errorf("missing input %d", i)
		}
		s, ok := shapes[n.Inputs[i]]
		if !ok {
			return nil, fmt.Errorf("input %q has no shape", n.Inputs[i])
		}
		return s, nil
	}
	setOut := func(i int, s []int) {
		shapes[n.Outputs[i]] = s
	}

	switch n.Op {
	case OpInput:
		a := n.Attrs.(*InputAttrs)
		shape := a.Shape
		if overrides != nil {
			if s, ok := overrides[n.Outputs[0]]; ok {
				shape = s
			}
		}
		setOut(0, append([]int(nil), shape...))
		return nil

	case OpConv2D:
		a := n.Attrs.(*Conv2DAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		if len(s) != 4 {
			return fmt.Errorf("conv input must be rank 4, got %v", s)
		}
		if a.InputCount == 0 {
			a.InputCount = s[1]
		} else if a.InputCount != s[1] {
			return fmt.Errorf("conv expects %d input channels, got %d", a.InputCount, s[1])
		}
		if a.Group > 0 && s[1]%a.Group != 0 {
			return fmt.Errorf("input channels %d not divisible by group %d", s[1], a.Group)
		}
		oh, ow, err := convOutputSize(s[2], s[3], a)
		if err != nil {
			return err
		}
		setOut(0, []int{s[0], a.OutputCount, oh, ow})
		return nil

	case OpDeconv2D:
		a := n.Attrs.(*Conv2DAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		if len(s) != 4 {
			return fmt.Errorf("deconv input must be rank 4, got %v", s)
		}
		if a.InputCount == 0 {
			a.InputCount = s[1]
		}
		kh := (a.KernelH-1)*dilOr1(a.DilationH) + 1
		kw := (a.KernelW-1)*dilOr1(a.DilationW) + 1
		oh := (s[2]-1)*a.StrideH + kh - 2*a.PadH
		ow := (s[3]-1)*a.StrideW + kw - 2*a.PadW
		if oh <= 0 || ow <= 0 {
			return fmt.Errorf("deconv output %dx%d not positive", oh, ow)
		}
		setOut(0, []int{s[0], a.OutputCount, oh, ow})
		return nil

	case OpPool:
		a := n.Attrs.(*PoolAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		if len(s) != 4 {
			return fmt.Errorf("pool input must be rank 4, got %v", s)
		}
		if a.Global {
			setOut(0, []int{s[0], s[1], 1, 1})
			return nil
		}
		oh, ow, err := poolOutputSize(s[2], s[3], a)
		if err != nil {
			return err
		}
		setOut(0, []int{s[0], s[1], oh, ow})
		return nil

	case OpReLU, OpReLU6, OpSigmoid, OpTanh, OpDropout:
		s, err := in(0)
		if err != nil {
			return err
		}
		setOut(0, append([]int(nil), s...))
		return nil

	case OpBatchNorm, OpScale:
		s, err := in(0)
		if err != nil {
			return err
		}
		if len(s) != 4 {
			return fmt.Errorf("%v input must be rank 4, got %v", n.Op, s)
		}
		setOut(0, append([]int(nil), s...))
		return nil

	case OpEltwise:
		s0, err := in(0)
		if err != nil {
			return err
		}
		for i := 1; i < len(n.Inputs); i++ {
			si, err := in(i)
			if err != nil {
				return err
			}
			if !tensor.EqualShape(s0, si) {
				return fmt.Errorf("eltwise shape mismatch %v vs %v", s0, si)
			}
		}
		setOut(0, append([]int(nil), s0...))
		return nil

	case OpConcat:
		a := n.Attrs.(*ConcatAttrs)
		s0, err := in(0)
		if err != nil {
			return err
		}
		if a.Axis < 0 || a.Axis >= len(s0) {
			return fmt.Errorf("concat axis %d out of range for rank %d", a.Axis, len(s0))
		}
		out := append([]int(nil), s0...)
		for i := 1; i < len(n.Inputs); i++ {
			si, err := in(i)
			if err != nil {
				return err
			}
			if len(si) != len(s0) {
				return fmt.Errorf("concat rank mismatch %v vs %v", s0, si)
			}
			for d := range si {
				if d == a.Axis {
					continue
				}
				if si[d] != s0[d] {
					return fmt.Errorf("concat non-axis dim %d mismatch %v vs %v", d, s0, si)
				}
			}
			out[a.Axis] += si[a.Axis]
		}
		setOut(0, out)
		return nil

	case OpInnerProduct:
		a := n.Attrs.(*InnerProductAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		batch := s[0]
		if len(n.WeightNames) == 0 {
			return fmt.Errorf("inner product needs a weight name")
		}
		w, ok := g.Weights[n.WeightNames[0]]
		if !ok {
			return fmt.Errorf("inner product weight %q missing", n.WeightNames[0])
		}
		// The weight is [out, features] in any rank; each sample must supply
		// exactly its features.
		if features := tensor.NumElements(s) / max(batch, 1); w.NumElements() != a.OutputCount*features {
			return fmt.Errorf("inner product reads %d features per sample, but weight %q has shape %v for %d outputs",
				features, n.WeightNames[0], w.Shape(), a.OutputCount)
		}
		setOut(0, []int{batch, a.OutputCount})
		return nil

	case OpSoftmax:
		s, err := in(0)
		if err != nil {
			return err
		}
		setOut(0, append([]int(nil), s...))
		return nil

	case OpFlatten:
		a := n.Attrs.(*FlattenAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		if a.Axis < 0 || a.Axis > len(s) {
			return fmt.Errorf("flatten axis %d out of range", a.Axis)
		}
		out := append([]int(nil), s[:a.Axis]...)
		rest := 1
		for _, d := range s[a.Axis:] {
			rest *= d
		}
		out = append(out, rest)
		setOut(0, out)
		return nil

	case OpReshape:
		a := n.Attrs.(*ReshapeAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		total := tensor.NumElements(s)
		out := append([]int(nil), a.Shape...)
		negIdx := -1
		prod := 1
		for i, d := range out {
			if d == -1 {
				if negIdx >= 0 {
					return fmt.Errorf("reshape with multiple -1 dims: %v", out)
				}
				negIdx = i
			} else {
				prod *= d
			}
		}
		if negIdx >= 0 {
			if prod == 0 || total%prod != 0 {
				return fmt.Errorf("reshape %v incompatible with %d elements", out, total)
			}
			out[negIdx] = total / prod
		} else if prod != total {
			return fmt.Errorf("reshape %v has %d elements, input has %d", out, prod, total)
		}
		setOut(0, out)
		return nil

	case OpPadding:
		a := n.Attrs.(*PaddingAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		if len(s) != 4 {
			return fmt.Errorf("padding input must be rank 4, got %v", s)
		}
		setOut(0, []int{s[0], s[1], s[2] + a.Top + a.Bottom, s[3] + a.Left + a.Right})
		return nil

	case OpLayerNorm:
		s, err := in(0)
		if err != nil {
			return err
		}
		if len(s) < 2 {
			return fmt.Errorf("layernorm input must be rank >= 2, got %v", s)
		}
		d := s[len(s)-1]
		for _, wn := range n.WeightNames {
			w, ok := g.Weights[wn]
			if !ok {
				return fmt.Errorf("layernorm weight %q missing", wn)
			}
			ws := w.Shape()
			if len(ws) != 1 || ws[0] != d {
				return fmt.Errorf("layernorm weight %q shape %v, want [%d]", wn, ws, d)
			}
		}
		setOut(0, append([]int(nil), s...))
		return nil

	case OpGELU:
		s, err := in(0)
		if err != nil {
			return err
		}
		setOut(0, append([]int(nil), s...))
		return nil

	case OpMatMul:
		a := n.Attrs.(*MatMulAttrs)
		s0, err := in(0)
		if err != nil {
			return err
		}
		if a.Heads == 0 {
			// Weight form: [.., M, K] x W[K, N] (+bias[N]) -> [.., M, N].
			if len(n.WeightNames) == 0 {
				return fmt.Errorf("matmul weight form needs a weight name")
			}
			w, ok := g.Weights[n.WeightNames[0]]
			if !ok {
				return fmt.Errorf("matmul weight %q missing", n.WeightNames[0])
			}
			ws := w.Shape()
			if len(ws) != 2 {
				return fmt.Errorf("matmul weight %q must be rank 2, got %v", n.WeightNames[0], ws)
			}
			k, nn := ws[0], ws[1]
			if len(s0) < 2 {
				return fmt.Errorf("matmul input must be rank >= 2, got %v", s0)
			}
			if s0[len(s0)-1] != k {
				return fmt.Errorf("matmul inner dim %d != weight rows %d", s0[len(s0)-1], k)
			}
			if len(n.WeightNames) > 1 {
				b, ok := g.Weights[n.WeightNames[1]]
				if !ok {
					return fmt.Errorf("matmul bias %q missing", n.WeightNames[1])
				}
				bs := b.Shape()
				if len(bs) != 1 || bs[0] != nn {
					return fmt.Errorf("matmul bias %q shape %v, want [%d]", n.WeightNames[1], bs, nn)
				}
			}
			out := append([]int(nil), s0...)
			out[len(out)-1] = nn
			setOut(0, out)
			return nil
		}
		// Batched forms: two rank-3 activation inputs.
		s1, err := in(1)
		if err != nil {
			return err
		}
		if len(s0) != 3 || len(s1) != 3 {
			return fmt.Errorf("batched matmul inputs must be rank 3, got %v x %v", s0, s1)
		}
		if s0[0] != s1[0] {
			return fmt.Errorf("batched matmul batch mismatch %d vs %d", s0[0], s1[0])
		}
		if a.TransposeB {
			// QK: [B, LA, D] x [B, LB, D] -> [B, H*LA, LB].
			d := s0[2]
			if s1[2] != d {
				return fmt.Errorf("qk matmul depth mismatch %d vs %d", d, s1[2])
			}
			if d%a.Heads != 0 {
				return fmt.Errorf("qk matmul depth %d not divisible by heads %d", d, a.Heads)
			}
			setOut(0, []int{s0[0], a.Heads * s0[1], s1[1]})
			return nil
		}
		// AV: [B, H*LA, LB] x [B, LB, D] -> [B, LA, D].
		if s0[1]%a.Heads != 0 {
			return fmt.Errorf("av matmul rows %d not divisible by heads %d", s0[1], a.Heads)
		}
		if s0[2] != s1[1] {
			return fmt.Errorf("av matmul inner dim mismatch %d vs %d", s0[2], s1[1])
		}
		if s1[2]%a.Heads != 0 {
			return fmt.Errorf("av matmul depth %d not divisible by heads %d", s1[2], a.Heads)
		}
		setOut(0, []int{s0[0], s0[1] / a.Heads, s1[2]})
		return nil

	case OpAttention:
		// [B, LA, D] attending over [B, LB, D] keys and values -> [B, LA, D].
		a := n.Attrs.(*AttentionAttrs)
		if len(n.Inputs) != 3 {
			return fmt.Errorf("attention needs q, k and v, got %d inputs", len(n.Inputs))
		}
		var s [3][]int
		for i := range s {
			var err error
			if s[i], err = in(i); err != nil {
				return err
			}
			if len(s[i]) != 3 {
				return fmt.Errorf("attention inputs must be rank 3, got %v", s[i])
			}
		}
		q, k, v := s[0], s[1], s[2]
		if q[0] != k[0] || k[0] != v[0] || k[1] != v[1] || q[2] != k[2] || k[2] != v[2] {
			return fmt.Errorf("attention shapes q %v, k %v, v %v do not match", q, k, v)
		}
		if a.Heads < 1 || q[2]%a.Heads != 0 {
			return fmt.Errorf("attention depth %d not divisible by heads %d", q[2], a.Heads)
		}
		setOut(0, append([]int(nil), q...))
		return nil

	case OpTranspose:
		a := n.Attrs.(*TransposeAttrs)
		s, err := in(0)
		if err != nil {
			return err
		}
		if len(a.Perm) != len(s) {
			return fmt.Errorf("transpose perm %v does not match rank %d", a.Perm, len(s))
		}
		seen := make([]bool, len(s))
		out := make([]int, len(s))
		for i, p := range a.Perm {
			if p < 0 || p >= len(s) || seen[p] {
				return fmt.Errorf("transpose perm %v is not a permutation", a.Perm)
			}
			seen[p] = true
			out[i] = s[p]
		}
		setOut(0, out)
		return nil
	}
	return fmt.Errorf("unhandled op %v", n.Op)
}

func dilOr1(d int) int {
	if d <= 0 {
		return 1
	}
	return d
}

func strideOr1(s int) int {
	if s <= 0 {
		return 1
	}
	return s
}

// convOutputSize computes output H/W for a Conv2D.
func convOutputSize(ih, iw int, a *Conv2DAttrs) (oh, ow int, err error) {
	kh := (a.KernelH-1)*dilOr1(a.DilationH) + 1
	kw := (a.KernelW-1)*dilOr1(a.DilationW) + 1
	sh, sw := strideOr1(a.StrideH), strideOr1(a.StrideW)
	var ph, pw int
	switch a.PadMode {
	case PadExplicit:
		ph, pw = a.PadH, a.PadW
	case PadValid:
		ph, pw = 0, 0
	case PadSame:
		oh = tensor.UpDiv(ih, sh)
		ow = tensor.UpDiv(iw, sw)
		if oh <= 0 || ow <= 0 {
			return 0, 0, fmt.Errorf("conv output %dx%d not positive", oh, ow)
		}
		return oh, ow, nil
	}
	oh = (ih+2*ph-kh)/sh + 1
	ow = (iw+2*pw-kw)/sw + 1
	if oh <= 0 || ow <= 0 {
		return 0, 0, fmt.Errorf("conv output %dx%d not positive (input %dx%d, kernel %dx%d, stride %dx%d, pad %dx%d)", oh, ow, ih, iw, kh, kw, sh, sw, ph, pw)
	}
	return oh, ow, nil
}

// ConvOutputSize is the exported form used by kernels and the cost model.
func ConvOutputSize(ih, iw int, a *Conv2DAttrs) (oh, ow int, err error) {
	return convOutputSize(ih, iw, a)
}

// ConvPadding resolves the effective top/left padding for a conv given its
// input size (PadSame computes centered padding).
func ConvPadding(ih, iw int, a *Conv2DAttrs) (ph, pw int) {
	switch a.PadMode {
	case PadExplicit:
		return a.PadH, a.PadW
	case PadValid:
		return 0, 0
	case PadSame:
		kh := (a.KernelH-1)*dilOr1(a.DilationH) + 1
		kw := (a.KernelW-1)*dilOr1(a.DilationW) + 1
		sh, sw := strideOr1(a.StrideH), strideOr1(a.StrideW)
		oh := tensor.UpDiv(ih, sh)
		ow := tensor.UpDiv(iw, sw)
		padAlongH := (oh-1)*sh + kh - ih
		padAlongW := (ow-1)*sw + kw - iw
		if padAlongH < 0 {
			padAlongH = 0
		}
		if padAlongW < 0 {
			padAlongW = 0
		}
		return padAlongH / 2, padAlongW / 2
	}
	return 0, 0
}

func poolOutputSize(ih, iw int, a *PoolAttrs) (oh, ow int, err error) {
	sh, sw := strideOr1(a.StrideH), strideOr1(a.StrideW)
	var ph, pw int
	switch a.PadMode {
	case PadExplicit:
		ph, pw = a.PadH, a.PadW
	case PadValid:
		ph, pw = 0, 0
	case PadSame:
		oh = tensor.UpDiv(ih, sh)
		ow = tensor.UpDiv(iw, sw)
		return oh, ow, nil
	}
	// Caffe-style ceil division for pooling.
	oh = tensor.UpDiv(ih+2*ph-a.KernelH, sh) + 1
	ow = tensor.UpDiv(iw+2*pw-a.KernelW, sw) + 1
	if ph > 0 || pw > 0 {
		// Clip windows that start entirely inside the padding.
		if (oh-1)*sh >= ih+ph {
			oh--
		}
		if (ow-1)*sw >= iw+pw {
			ow--
		}
	}
	if oh <= 0 || ow <= 0 {
		return 0, 0, fmt.Errorf("pool output %dx%d not positive", oh, ow)
	}
	return oh, ow, nil
}

// PoolOutputSize is the exported form.
func PoolOutputSize(ih, iw int, a *PoolAttrs) (oh, ow int, err error) {
	return poolOutputSize(ih, iw, a)
}

// PoolPadding resolves effective top/left padding for pooling.
func PoolPadding(ih, iw int, a *PoolAttrs) (ph, pw int) {
	switch a.PadMode {
	case PadExplicit:
		return a.PadH, a.PadW
	case PadValid:
		return 0, 0
	case PadSame:
		sh, sw := strideOr1(a.StrideH), strideOr1(a.StrideW)
		oh := tensor.UpDiv(ih, sh)
		ow := tensor.UpDiv(iw, sw)
		padAlongH := (oh-1)*sh + a.KernelH - ih
		padAlongW := (ow-1)*sw + a.KernelW - iw
		if padAlongH < 0 {
			padAlongH = 0
		}
		if padAlongW < 0 {
			padAlongW = 0
		}
		return padAlongH / 2, padAlongW / 2
	}
	return 0, 0
}
