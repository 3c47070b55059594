package cpu

import (
	"fmt"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/graph"
	"mnn/internal/kernels"
	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// execFunc adapts a closure to backend.Execution. The closures are built
// once during pre-inference and capture only prepared state, so invoking
// them is allocation-free.
type execFunc func() error

func (f execFunc) Run() error { return f() }

// workspace returns the planner-provided scratch slab for a node, falling
// back to a private allocation when the backend is used outside a session's
// pre-inference walk (unit tests, gpusim's internal compute backend).
func (b *Backend) workspace(node string, need int) []float32 {
	if need == 0 {
		return nil
	}
	if buf := b.PlannedBuffer(backend.WorkspaceKey(node)); len(buf) >= need {
		return buf[:need]
	}
	return make([]float32, need)
}

// NodeWorkspaceFloats implements backend.WorkspaceSizer: the transient
// float32 requirement of each operator, declared during the pre-inference
// walk so the Figure 3 planner lays workspaces into the reuse arena
// alongside activations (zero for the kernels that work on NC4HW4 in place:
// 1×1, depthwise and sliding convolutions). Every formula mirrors what
// OnCreate binds; sizing uses the pool's lane count (the single source of
// truth kernels dispatch over), which may differ from cfg.Threads when a
// pool was injected.
func (b *Backend) NodeWorkspaceFloats(n *graph.Node, inputShapes, outputShapes [][]int) int {
	lanes := b.pool.Lanes()
	var in0, out0 []int
	if len(inputShapes) > 0 {
		in0 = inputShapes[0]
	}
	if len(outputShapes) > 0 {
		out0 = outputShapes[0]
	}
	switch n.Op {
	case graph.OpConv2D:
		if len(in0) != 4 || len(out0) != 4 {
			return 0
		}
		a := n.Attrs.(*graph.Conv2DAttrs)
		dec := b.ConvSchemeFor(n, in0)
		ic, oc := in0[1], out0[1]
		OH, OW := out0[2], out0[3]
		if b.int8Node(n) && core.Int8ConvSupported(a, dec) {
			return kernels.QuantConvWorkspaceFloats(ic, in0[2], in0[3])
		}
		switch dec.Scheme {
		case core.SchemeWinograd:
			return kernels.WinogradWorkspaceFloats(a, dec.TileH, dec.TileW, ic, oc, lanes)
		case core.SchemeIm2col:
			// im2col computes in NCHW: the patch/product matrices plus the
			// two layout-staging copies.
			return kernels.Im2colWorkspaceFloats(a, ic, oc, OH, OW) +
				tensor.NumElements(in0) + tensor.NumElements(out0)
		default:
			return 0
		}

	case graph.OpDeconv2D:
		// Reference deconv stages through NCHW temporaries.
		return tensor.NumElements(in0) + tensor.NumElements(out0)

	case graph.OpInnerProduct:
		// NC4HW4 inputs are unpacked into a flat [batch, features] matrix.
		staging := 0
		if len(in0) == 4 {
			staging = tensor.NumElements(in0)
		}
		if b.int8Node(n) {
			a := n.Attrs.(*graph.InnerProductAttrs)
			batch := in0[0]
			features := tensor.NumElements(in0) / batch
			return staging + kernels.QuantInnerProductWorkspaceFloats(batch, features, a.OutputCount)
		}
		return staging

	case graph.OpSoftmax:
		// NC4HW4 inputs stage through NCHW in/out temporaries.
		if len(in0) == 4 {
			return tensor.NumElements(in0) + tensor.NumElements(out0)
		}
		return 0

	case graph.OpFlatten, graph.OpReshape, graph.OpDropout:
		// A packed source that changes shape is unpacked through an NCHW
		// staging buffer.
		if len(in0) == 4 && !tensor.EqualShape(in0, out0) {
			return tensor.NumElements(in0)
		}
		return 0

	case graph.OpConcat:
		a := n.Attrs.(*graph.ConcatAttrs)
		if a.Axis == 1 && len(out0) == 4 {
			return 0 // channel concat runs in place on NC4HW4
		}
		total := tensor.NumElements(out0)
		for _, s := range inputShapes {
			total += tensor.NumElements(s)
		}
		return total
	}
	return 0
}

// int8Node reports whether the quantized path applies to a node: the
// backend runs int8 and the plan (when present) includes the node.
func (b *Backend) int8Node(n *graph.Node) bool {
	return b.cfg.Int8 && (b.cfg.QuantPlan == nil || b.cfg.QuantPlan[n.Name])
}

// actScale resolves the calibrated scale of a node's first input (0 = none,
// kernels fall back to per-sample dynamic scales).
func (b *Backend) actScale(n *graph.Node) float32 {
	if len(n.Inputs) == 0 {
		return 0
	}
	return b.cfg.ActScales[n.Inputs[0]]
}

// carveTensor wraps the next PhysicalLen floats of buf as a tensor and
// returns the remainder. Falls back to a fresh tensor when buf is short.
func carveTensor(buf []float32, layout tensor.Layout, shape []int) (*tensor.Tensor, []float32) {
	need := tensor.PhysicalLen(layout, shape)
	if len(buf) < need {
		return tensor.NewWithLayout(layout, shape...), buf
	}
	return tensor.WrapBuffer(buf[:need], layout, shape...), buf[need:]
}

// OnCreate implements backend.Backend: it binds tensors, runs scheme
// selection (for convolutions), transforms/packs weights, and binds
// planner-provided workspaces, returning a pure-compute Execution. This is
// the "preparation" half of the paper's preparation–execution decoupling;
// the executions it returns are allocation-free in steady state.
func (b *Backend) OnCreate(n *graph.Node, inputs, outputs []*tensor.Tensor, weights backend.WeightSource) (backend.Execution, error) {
	pool := b.pool
	switch n.Op {
	case graph.OpInput:
		return execFunc(func() error { return nil }), nil

	case graph.OpConv2D:
		return b.createConv(n, inputs[0], outputs[0], weights)

	case graph.OpDeconv2D:
		return b.createDeconv(n, inputs[0], outputs[0], weights)

	case graph.OpPool:
		a := n.Attrs.(*graph.PoolAttrs)
		in, out := inputs[0], outputs[0]
		op := kernels.NewPoolOp(out, in, a)
		muls := int64(out.NumElements()) / 2
		return execFunc(func() error {
			op.Run(pool)
			b.charge("Pool", muls, n, "pool")
			return nil
		}), nil

	case graph.OpReLU, graph.OpReLU6, graph.OpSigmoid, graph.OpTanh:
		kind := map[graph.OpType]kernels.ActivationKind{
			graph.OpReLU:    kernels.ActReLU,
			graph.OpReLU6:   kernels.ActReLU6,
			graph.OpSigmoid: kernels.ActSigmoid,
			graph.OpTanh:    kernels.ActTanh,
		}[n.Op]
		in, out := inputs[0], outputs[0]
		op := kernels.NewActivationOp(out, in, kind)
		muls := int64(out.NumElements()) / 4
		label := n.Op.String()
		return execFunc(func() error {
			op.Run(pool)
			b.charge(label, muls, n, "activation")
			return nil
		}), nil

	case graph.OpBatchNorm:
		a := n.Attrs.(*graph.BatchNormAttrs)
		if len(n.WeightNames) != 4 {
			return nil, fmt.Errorf("cpu: BatchNorm %q needs 4 weights, has %d", n.Name, len(n.WeightNames))
		}
		gamma := weights(n.WeightNames[0])
		beta := weights(n.WeightNames[1])
		mean := weights(n.WeightNames[2])
		variance := weights(n.WeightNames[3])
		// Fold to scale+shift at prepare time (pre-computed constants,
		// Figure 2).
		scale, shift := kernels.FoldBatchNorm(gamma.Data(), beta.Data(), mean.Data(), variance.Data(), a.Eps)
		in, out := inputs[0], outputs[0]
		op := kernels.NewScaleOp(out, in, scale, shift)
		muls := int64(out.NumElements())
		return execFunc(func() error {
			op.Run(pool)
			b.charge("BatchNorm", muls, n, "scale")
			return nil
		}), nil

	case graph.OpScale:
		a := n.Attrs.(*graph.ScaleAttrs)
		scale := weights(n.WeightNames[0]).Data()
		var shift []float32
		if a.HasBias && len(n.WeightNames) > 1 {
			shift = weights(n.WeightNames[1]).Data()
		}
		in, out := inputs[0], outputs[0]
		op := kernels.NewScaleOp(out, in, scale, shift)
		muls := int64(out.NumElements())
		return execFunc(func() error {
			op.Run(pool)
			b.charge("Scale", muls, n, "scale")
			return nil
		}), nil

	case graph.OpEltwise:
		a := n.Attrs.(*graph.EltwiseAttrs)
		out := outputs[0]
		op := kernels.NewEltwiseOp(out, inputs, a)
		muls := int64(out.NumElements()) / 4
		return execFunc(func() error {
			op.Run(pool)
			b.charge("Eltwise", muls, n, "eltwise")
			return nil
		}), nil

	case graph.OpConcat:
		a := n.Attrs.(*graph.ConcatAttrs)
		out := outputs[0]
		ins := append([]*tensor.Tensor(nil), inputs...)
		muls := int64(out.NumElements()) / 8
		if a.Axis == 1 && out.Rank() == 4 {
			return execFunc(func() error {
				kernels.ConcatChannel(out, ins)
				b.charge("Concat", muls, n, "concat")
				return nil
			}), nil
		}
		// Generic axis: stage through NCHW temporaries from the planned
		// workspace.
		wsNeed := out.NumElements()
		for _, in := range ins {
			wsNeed += in.NumElements()
		}
		buf := b.workspace(n.Name, wsNeed)
		tmpIns := make([]*tensor.Tensor, len(ins))
		for i, in := range ins {
			tmpIns[i], buf = carveTensor(buf, tensor.NCHW, in.Shape())
		}
		tmpOut, _ := carveTensor(buf, tensor.NCHW, out.Shape())
		return execFunc(func() error {
			for i, in := range ins {
				tmpIns[i].CopyFrom(in)
			}
			kernels.ConcatAxis(tmpOut, tmpIns, a.Axis)
			out.CopyFrom(tmpOut)
			b.charge("Concat", muls, n, "concat")
			return nil
		}), nil

	case graph.OpInnerProduct:
		a := n.Attrs.(*graph.InnerProductAttrs)
		weight := weights(n.WeightNames[0])
		var bias *tensor.Tensor
		if len(n.WeightNames) > 1 {
			bias = weights(n.WeightNames[1])
		}
		in, out := inputs[0], outputs[0]
		batch := in.Dim(0)
		features := in.NumElements() / batch
		// The FC weight may be stored [out, features]; flatten input to
		// match regardless of its rank/layout.
		w2 := weight
		if weight.Rank() != 2 {
			w2 = weight.Reshape(a.OutputCount, features)
		}
		if b.int8Node(n) {
			return b.createQuantInnerProduct(n, in, out, w2, bias, a)
		}
		ip := shared(b.cfg.Prepared, prepKey{node: n.Name}, func() *kernels.InnerProduct {
			return kernels.PrepareInnerProduct(w2, bias, a)
		})
		muls := int64(batch) * int64(features) * int64(a.OutputCount)
		if in.Layout() == tensor.NC4HW4 {
			// Unpack via logical copy into a planner-backed flat buffer;
			// flat4 is the rank-4 view the copy goes through.
			flat, _ := carveTensor(b.workspace(n.Name, batch*features), tensor.NCHW, []int{batch, features})
			flat4 := flat.Reshape(in.Shape()...)
			return execFunc(func() error {
				flat4.CopyFrom(in)
				ip.Run(out, flat, pool)
				b.charge("InnerProduct", muls, n, "gemm")
				return nil
			}), nil
		}
		src := in
		if in.Rank() != 2 {
			src = in.Reshape(batch, features)
		}
		return execFunc(func() error {
			ip.Run(out, src, pool)
			b.charge("InnerProduct", muls, n, "gemm")
			return nil
		}), nil

	case graph.OpSoftmax:
		a := n.Attrs.(*graph.SoftmaxAttrs)
		in, out := inputs[0], outputs[0]
		muls := int64(out.NumElements()) * 2
		if in.Layout() != tensor.NC4HW4 {
			axis := a.Axis
			if axis < 0 {
				axis += in.Rank()
			}
			if axis == in.Rank()-1 {
				// Last-axis softmax (the attention case) gets the pooled
				// row-chunked kernel; rows are independent, so chunking
				// cannot perturb a single float.
				op := kernels.NewSoftmaxOp(out, in)
				return execFunc(func() error {
					op.Run(pool)
					b.charge("Softmax", muls, n, "softmax")
					return nil
				}), nil
			}
			return execFunc(func() error {
				kernels.SoftmaxRef(out, in, a.Axis)
				b.charge("Softmax", muls, n, "softmax")
				return nil
			}), nil
		}
		buf := b.workspace(n.Name, in.NumElements()+out.NumElements())
		tmpIn, buf := carveTensor(buf, tensor.NCHW, in.Shape())
		tmpOut, _ := carveTensor(buf, tensor.NCHW, out.Shape())
		return execFunc(func() error {
			tmpIn.CopyFrom(in)
			kernels.SoftmaxRef(tmpOut, tmpIn, a.Axis)
			out.CopyFrom(tmpOut)
			b.charge("Softmax", muls, n, "softmax")
			return nil
		}), nil

	case graph.OpFlatten, graph.OpReshape, graph.OpDropout:
		in, out := inputs[0], outputs[0]
		muls := int64(out.NumElements()) / 8
		label := n.Op.String()
		run := b.createReinterpret(n, out, in)
		return execFunc(func() error {
			run()
			b.charge(label, muls, n, "copy")
			return nil
		}), nil

	case graph.OpPadding:
		a := n.Attrs.(*graph.PaddingAttrs)
		in, out := inputs[0], outputs[0]
		op := kernels.NewPadOp(out, in, a)
		muls := int64(out.NumElements()) / 8
		return execFunc(func() error {
			op.Run(pool)
			b.charge("Padding", muls, n, "copy")
			return nil
		}), nil

	case graph.OpLayerNorm:
		a := n.Attrs.(*graph.LayerNormAttrs)
		in, out := inputs[0], outputs[0]
		if err := requireFlat(n, in, out); err != nil {
			return nil, err
		}
		if len(n.WeightNames) != 2 {
			return nil, fmt.Errorf("cpu: LayerNorm %q needs gamma+beta weights, has %d", n.Name, len(n.WeightNames))
		}
		op := kernels.NewLayerNormOp(out, in, weights(n.WeightNames[0]), weights(n.WeightNames[1]), a)
		muls := int64(out.NumElements()) * 2
		return execFunc(func() error {
			op.Run(pool)
			b.charge("LayerNorm", muls, n, "norm")
			return nil
		}), nil

	case graph.OpGELU:
		in, out := inputs[0], outputs[0]
		op := kernels.NewGELUOp(out, in)
		muls := int64(out.NumElements()) * 4
		return execFunc(func() error {
			op.Run(pool)
			b.charge("GELU", muls, n, "activation")
			return nil
		}), nil

	case graph.OpTranspose:
		a := n.Attrs.(*graph.TransposeAttrs)
		in, out := inputs[0], outputs[0]
		if err := requireFlat(n, in, out); err != nil {
			return nil, err
		}
		op := kernels.NewTransposeOp(out, in, a)
		muls := int64(out.NumElements()) / 8
		return execFunc(func() error {
			op.Run(pool)
			b.charge("Transpose", muls, n, "copy")
			return nil
		}), nil

	case graph.OpMatMul:
		return b.createMatMul(n, inputs, outputs[0], weights)
	}
	return nil, fmt.Errorf("cpu: unsupported op %v", n.Op)
}

// requireFlat rejects NC4HW4-bound tensors for ops whose kernels index raw
// buffers with row-major strides. The transformer op set is rank-3, which
// PreferredLayout keeps flat, so this only fires on hand-built graphs.
func requireFlat(n *graph.Node, ts ...*tensor.Tensor) error {
	for _, t := range ts {
		if t.Layout() == tensor.NC4HW4 {
			return fmt.Errorf("cpu: %v %q requires flat (NCHW) tensors, got NC4HW4", n.Op, n.Name)
		}
	}
	return nil
}

// createMatMul prepares one of the three MatMul forms (see graph.MatMulAttrs).
func (b *Backend) createMatMul(n *graph.Node, inputs []*tensor.Tensor, out *tensor.Tensor, weights backend.WeightSource) (backend.Execution, error) {
	a := n.Attrs.(*graph.MatMulAttrs)
	pool := b.pool
	if err := requireFlat(n, append(append([]*tensor.Tensor(nil), inputs...), out)...); err != nil {
		return nil, err
	}
	if a.Heads == 0 {
		if len(n.WeightNames) == 0 {
			return nil, fmt.Errorf("cpu: MatMul %q weight form needs a weight", n.Name)
		}
		w := weights(n.WeightNames[0])
		var bias *tensor.Tensor
		if len(n.WeightNames) > 1 {
			bias = weights(n.WeightNames[1])
		}
		in := inputs[0]
		k, nn := w.Dim(0), w.Dim(1)
		packed, _ := get(b.cfg.Prepared, prepKey{node: n.Name}, func() (*matmul.PackedB, error) {
			return matmul.PackB(w.Data(), k, nn), nil // cannot fail
		})
		op := kernels.NewMatMulWeightOp(out, in, w, bias, a, packed)
		rows := in.NumElements() / k
		muls := int64(rows) * int64(k) * int64(nn)
		return execFunc(func() error {
			op.Run(pool)
			b.charge("MatMul", muls, n, "gemm-packed")
			return nil
		}), nil
	}
	if len(inputs) < 2 {
		return nil, fmt.Errorf("cpu: MatMul %q batched form needs 2 inputs", n.Name)
	}
	op := kernels.NewMatMulBatchedOp(out, inputs[0], inputs[1], a)
	muls := int64(out.NumElements()) * int64(inputs[0].Dim(2))
	scheme := "gemm-av"
	if a.TransposeB {
		scheme = "gemm-qk"
	}
	return execFunc(func() error {
		op.Run(pool)
		b.charge("MatMul", muls, n, scheme)
		return nil
	}), nil
}

// createReinterpret prepares the copy for shapes that differ only by
// reinterpretation (Flatten/Reshape/Dropout). All views and staging buffers
// are bound here so the returned closure is allocation-free.
func (b *Backend) createReinterpret(n *graph.Node, dst, src *tensor.Tensor) func() {
	if tensor.EqualShape(dst.Shape(), src.Shape()) {
		return func() { dst.CopyFrom(src) }
	}
	if src.Layout() == tensor.NC4HW4 {
		// Unpack through a planner-backed NCHW staging buffer, then copy
		// flat via the pre-built reshaped view.
		staging, _ := carveTensor(b.workspace(n.Name, src.NumElements()), tensor.NCHW, src.Shape())
		view := staging.Reshape(dst.Shape()...)
		return func() {
			staging.CopyFrom(src)
			dst.CopyFrom(view)
		}
	}
	view := src.Reshape(dst.Shape()...)
	return func() { dst.CopyFrom(view) }
}

// createConv runs scheme selection (Equations 2–3) and prepares the chosen
// kernel with its planner-backed workspace.
func (b *Backend) createConv(n *graph.Node, in, out *tensor.Tensor, weights backend.WeightSource) (backend.Execution, error) {
	a := n.Attrs.(*graph.Conv2DAttrs)
	weight := weights(n.WeightNames[0])
	var bias *tensor.Tensor
	if len(n.WeightNames) > 1 {
		bias = weights(n.WeightNames[1])
	}
	dec := b.ConvSchemeFor(n, in.Shape())
	pool := b.pool
	lanes := pool.Lanes()

	if b.int8Node(n) && core.Int8ConvSupported(a, dec) {
		return b.createQuantConv(n, in, out, weight, bias, dec)
	}

	key := prepKey{n.Name, dec.Scheme, dec.TileH, dec.TileW}
	switch dec.Scheme {
	case core.SchemeWinograd:
		proto, err := get(b.cfg.Prepared, key, func() (*kernels.WinogradConv, error) {
			return kernels.PrepareWinograd(weight, bias, a, dec.TileH, dec.TileW)
		})
		if err != nil {
			return nil, fmt.Errorf("cpu: conv %q: %w", n.Name, err)
		}
		wc := proto.Share()
		ws := b.workspace(n.Name, wc.WorkspaceSize()*lanes)
		scheme := dec.Scheme.String()
		return execFunc(func() error {
			wc.Run(out, in, pool, ws)
			b.charge("Conv2D", dec.EffMULs, n, scheme)
			return nil
		}), nil

	case core.SchemeStrassen1x1:
		c := shared(b.cfg.Prepared, key, func() *kernels.Conv1x1 {
			return kernels.PrepareConv1x1(weight, bias, a)
		})
		scheme := dec.Scheme.String()
		return execFunc(func() error {
			c.Run(out, in, pool)
			b.charge("Conv2D", dec.EffMULs, n, scheme)
			return nil
		}), nil

	case core.SchemeDepthwise:
		dc := shared(b.cfg.Prepared, key, func() *kernels.DepthwiseConv {
			return kernels.PrepareDepthwise(weight, bias, a)
		})
		scheme := dec.Scheme.String()
		return execFunc(func() error {
			dc.Run(out, in, pool)
			b.charge("Conv2D", dec.EffMULs, n, scheme)
			return nil
		}), nil

	case core.SchemeIm2col:
		c := shared(b.cfg.Prepared, key, func() *kernels.Im2colConv {
			return kernels.PrepareIm2col(weight, bias, a)
		})
		gemmWS := kernels.Im2colWorkspaceFloats(a, in.Channels(), out.Channels(), out.Height(), out.Width())
		buf := b.workspace(n.Name, gemmWS+in.NumElements()+out.NumElements())
		var ws []float32
		if len(buf) >= gemmWS {
			ws, buf = buf[:gemmWS], buf[gemmWS:]
		} else {
			ws = make([]float32, gemmWS)
		}
		// im2col computes in NCHW; stage through planner-backed temps.
		tmpIn, buf := carveTensor(buf, tensor.NCHW, in.Shape())
		tmpOut, _ := carveTensor(buf, tensor.NCHW, out.Shape())
		scheme := dec.Scheme.String()
		return execFunc(func() error {
			tmpIn.CopyFrom(in)
			c.Run(tmpOut, tmpIn, pool, ws)
			out.CopyFrom(tmpOut)
			b.charge("Conv2D", dec.EffMULs, n, scheme)
			return nil
		}), nil

	default: // SchemeSliding
		sc := shared(b.cfg.Prepared, key, func() *kernels.SlidingConv {
			return kernels.PrepareSliding(weight, bias, a)
		})
		scheme := dec.Scheme.String()
		return execFunc(func() error {
			sc.Run(out, in, pool)
			b.charge("Conv2D", dec.EffMULs, n, scheme)
			return nil
		}), nil
	}
}

func (b *Backend) createDeconv(n *graph.Node, in, out *tensor.Tensor, weights backend.WeightSource) (backend.Execution, error) {
	a := n.Attrs.(*graph.Conv2DAttrs)
	weight := weights(n.WeightNames[0])
	var bias *tensor.Tensor
	if len(n.WeightNames) > 1 {
		bias = weights(n.WeightNames[1])
	}
	buf := b.workspace(n.Name, in.NumElements()+out.NumElements())
	tmpIn, buf := carveTensor(buf, tensor.NCHW, in.Shape())
	tmpOut, _ := carveTensor(buf, tensor.NCHW, out.Shape())
	muls := int64(in.NumElements()) * int64(a.OutputCount) * int64(a.KernelH) * int64(a.KernelW)
	return execFunc(func() error {
		tmpIn.CopyFrom(in)
		kernels.DeconvRef(tmpOut, tmpIn, weight, bias, a)
		out.CopyFrom(tmpOut)
		b.charge("Deconv2D", muls, n, "deconv")
		return nil
	}), nil
}
