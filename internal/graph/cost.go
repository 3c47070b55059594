package graph

import "mnn/internal/tensor"

// MULCount returns the number of scalar multiplications an operator performs
// with a direct (non-fast-algorithm) implementation. This is the MUL term of
// the paper's backend cost model (Eq. 5): Cop = MUL/FLOPS * 1000 (+ t_sched).
//
// Non-multiplying ops (pooling, activation, eltwise-sum, concat, ...) return
// a small proxy count proportional to the elements they touch so that
// backend scheduling still accounts for their data movement.
func MULCount(n *Node, shapes ShapeMap) int64 {
	outShape := func(i int) []int {
		if i < len(n.Outputs) {
			return shapes[n.Outputs[i]]
		}
		return nil
	}
	inShape := func(i int) []int {
		if i < len(n.Inputs) {
			return shapes[n.Inputs[i]]
		}
		return nil
	}
	elems := func(s []int) int64 {
		if s == nil {
			return 0
		}
		return int64(tensor.NumElements(s))
	}

	switch n.Op {
	case OpConv2D:
		a := n.Attrs.(*Conv2DAttrs)
		out := outShape(0)
		in := inShape(0)
		if out == nil || in == nil {
			return 0
		}
		group := a.Group
		if group <= 0 {
			group = 1
		}
		icPerGroup := int64(in[1] / group)
		// N * oc * oh * ow * (ic/g) * kh * kw
		return elems(out) * icPerGroup * int64(a.KernelH) * int64(a.KernelW)

	case OpDeconv2D:
		a := n.Attrs.(*Conv2DAttrs)
		in := inShape(0)
		out := outShape(0)
		if out == nil || in == nil {
			return 0
		}
		group := a.Group
		if group <= 0 {
			group = 1
		}
		ocPerGroup := int64(a.OutputCount / group)
		// Every input element multiplies against kh*kw*(oc/g) weights.
		return elems(in) * ocPerGroup * int64(a.KernelH) * int64(a.KernelW)

	case OpInnerProduct:
		a := n.Attrs.(*InnerProductAttrs)
		in := inShape(0)
		if in == nil {
			return 0
		}
		features := elems(in) / int64(in[0])
		return int64(in[0]) * features * int64(a.OutputCount)

	case OpBatchNorm, OpScale:
		return elems(outShape(0)) // one multiply per element

	case OpEltwise:
		a := n.Attrs.(*EltwiseAttrs)
		if a.Type == EltProd {
			return elems(outShape(0))
		}
		return elems(outShape(0)) / 4 // movement proxy

	case OpSoftmax:
		return elems(outShape(0)) * 2 // exp + divide, approximated

	case OpPool:
		return elems(outShape(0)) / 2 // movement proxy

	case OpReLU, OpReLU6, OpSigmoid, OpTanh:
		return elems(outShape(0)) / 4

	case OpConcat, OpFlatten, OpReshape, OpDropout, OpPadding, OpInput:
		return elems(outShape(0)) / 8
	}
	return 0
}
