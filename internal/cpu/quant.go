package cpu

import (
	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/graph"
	"mnn/internal/kernels"
	"mnn/internal/tensor"
)

// Quantized execution creation: when Config.Int8 is set (and the
// optimizer.PlanInt8 partition, if provided, includes the node), eligible
// convolutions and fully-connected layers bind the prepared int8 kernels.
// Weight quantization happens here, during pre-inference; the kernels draw
// their quantized activations from the same planner arena as every other
// workspace, so the int8 hot path is as allocation-free as the fp32 one.

// int8Route labels the int8 tap GEMM in charges and scheme counts.
const int8Route = "int8-gemm"

// createQuantConv binds the int8 tap GEMM for a node whose decision passed
// core.Int8ConvSupported. Activations are NC4HW4 on this backend
// (PreferredLayout), which is all the kernel takes.
func (b *Backend) createQuantConv(n *graph.Node, in, out *tensor.Tensor, weight, bias *tensor.Tensor, dec core.ConvDecision) (backend.Execution, error) {
	a := n.Attrs.(*graph.Conv2DAttrs)
	pool := b.pool
	qc := shared(b.cfg.Prepared, prepKey{n.Name, dec.Scheme, dec.TileH, dec.TileW}, func() *kernels.QuantConv {
		qc := kernels.PrepareQuantConv(weight, bias, a, b.actScale(n))
		qc.Unsigned = b.cfg.NonNegActs[n.Inputs[0]]
		return qc
	})
	ws := b.workspace(n.Name, kernels.QuantConvWorkspaceFloats(a, in.Channels(), in.Height(), in.Width()))
	muls := dec.DirectMULs // the int8 GEMM computes every multiply
	return execFunc(func() error {
		qc.Run(out, in, pool, ws)
		b.charge("Conv2D", muls, n, int8Route)
		return nil
	}), nil
}

// createQuantInnerProduct binds the int8 fully-connected kernel, staging
// NC4HW4 inputs through the same planner-backed flat buffer as the fp32
// path.
func (b *Backend) createQuantInnerProduct(n *graph.Node, in, out *tensor.Tensor, w2, bias *tensor.Tensor, a *graph.InnerProductAttrs) (backend.Execution, error) {
	pool := b.pool
	batch := in.Dim(0)
	features := in.NumElements() / batch
	ip := shared(b.cfg.Prepared, prepKey{node: n.Name}, func() *kernels.QuantInnerProduct {
		ip := kernels.PrepareQuantInnerProduct(w2, bias, a, b.actScale(n))
		ip.Unsigned = b.cfg.NonNegActs[n.Inputs[0]]
		return ip
	})
	muls := int64(batch) * int64(features) * int64(a.OutputCount)
	quantWS := kernels.QuantInnerProductWorkspaceFloats(batch, features, a.OutputCount)
	if in.Layout() == tensor.NC4HW4 {
		buf := b.workspace(n.Name, batch*features+quantWS)
		flat, buf := carveTensor(buf, tensor.NCHW, in.Shape())
		return execFunc(func() error {
			bound(flat, in.Shape()).CopyFrom(in)
			ip.Run(out, flat, pool, buf)
			b.charge("InnerProduct", muls, n, int8Route)
			return nil
		}), nil
	}
	ws := b.workspace(n.Name, quantWS)
	return execFunc(func() error {
		ip.Run(out, in, pool, ws)
		b.charge("InnerProduct", muls, n, int8Route)
		return nil
	}), nil
}
