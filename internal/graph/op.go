// Package graph defines the computational-graph intermediate representation
// shared by the converter, the offline optimizer, and the runtime engine.
//
// A Graph is a list of Nodes in topological order plus a table of named
// constant tensors (weights). Activations are referenced by string name; the
// engine assigns buffers to them during pre-inference (paper Section 3.2).
package graph

import "fmt"

// OpType identifies an operator kind.
type OpType uint8

// Operator kinds. The set covers every operator needed by the paper's
// benchmark networks (MobileNet-v1/v2, SqueezeNet-v1.0/1.1, ResNet-18/50,
// Inception-v3) plus deconvolution, which Figure 1 of the paper lists among
// the operator-diversity examples.
const (
	OpInput OpType = iota
	OpConv2D
	OpDeconv2D
	OpPool
	OpReLU
	OpReLU6
	OpSigmoid
	OpTanh
	OpBatchNorm
	OpScale
	OpEltwise
	OpConcat
	OpInnerProduct
	OpSoftmax
	OpFlatten
	OpReshape
	OpDropout
	OpPadding
	OpLayerNorm
	OpGELU
	OpMatMul
	OpTranspose
	opCount // sentinel; keep last

	// OpAttention is a session's own fused attention, QKᵀ → last-axis
	// softmax → ·V in one node (optimizer.FuseAttention). It exists only in
	// a session's private graph: no model file, converter or AllOpTypes
	// lists it.
	OpAttention = opCount
)

var opNames = [...]string{
	OpInput:        "Input",
	OpConv2D:       "Conv2D",
	OpDeconv2D:     "Deconv2D",
	OpPool:         "Pool",
	OpReLU:         "ReLU",
	OpReLU6:        "ReLU6",
	OpSigmoid:      "Sigmoid",
	OpTanh:         "Tanh",
	OpBatchNorm:    "BatchNorm",
	OpScale:        "Scale",
	OpEltwise:      "Eltwise",
	OpConcat:       "Concat",
	OpInnerProduct: "InnerProduct",
	OpSoftmax:      "Softmax",
	OpFlatten:      "Flatten",
	OpReshape:      "Reshape",
	OpDropout:      "Dropout",
	OpPadding:      "Padding",
	OpLayerNorm:    "LayerNorm",
	OpGELU:         "GELU",
	OpMatMul:       "MatMul",
	OpTranspose:    "Transpose",
}

func (o OpType) String() string {
	if o == OpAttention {
		return "Attention"
	}
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OpType(%d)", uint8(o))
}

// NumOpTypes returns the number of defined operator kinds.
func NumOpTypes() int { return int(opCount) }

// AllOpTypes lists every defined operator kind.
func AllOpTypes() []OpType {
	out := make([]OpType, 0, int(opCount))
	for i := OpType(0); i < opCount; i++ {
		out = append(out, i)
	}
	return out
}

// ParseOpType resolves a name produced by OpType.String.
func ParseOpType(name string) (OpType, error) {
	for i, n := range opNames {
		if n == name {
			return OpType(i), nil
		}
	}
	return 0, fmt.Errorf("graph: unknown op type %q", name)
}

// PadMode selects how convolution padding is derived.
type PadMode uint8

const (
	// PadExplicit uses the PadH/PadW attribute values on all four sides.
	PadExplicit PadMode = iota
	// PadSame pads so that output spatial size = ceil(input/stride).
	PadSame
	// PadValid applies no padding.
	PadValid
)

func (p PadMode) String() string {
	switch p {
	case PadExplicit:
		return "explicit"
	case PadSame:
		return "same"
	case PadValid:
		return "valid"
	default:
		return fmt.Sprintf("PadMode(%d)", uint8(p))
	}
}

// Conv2DAttrs parameterizes convolution and deconvolution. Weight layout is
// [oc, ic/group, kh, kw]; bias is [oc].
type Conv2DAttrs struct {
	KernelH, KernelW     int
	StrideH, StrideW     int
	DilationH, DilationW int
	PadH, PadW           int
	PadMode              PadMode
	Group                int // ic == oc == Group means depthwise
	OutputCount          int // oc
	InputCount           int // ic (filled by shape inference if zero)
	// Fused activation, produced by the offline optimizer.
	ReLU  bool
	ReLU6 bool
}

// IsDepthwise reports whether the conv is a depthwise convolution.
func (a *Conv2DAttrs) IsDepthwise() bool {
	return a.Group > 1 && a.Group == a.OutputCount && a.Group == a.InputCount
}

// PoolType selects the pooling reduction.
type PoolType uint8

const (
	MaxPool PoolType = iota
	AvgPool
)

func (p PoolType) String() string {
	if p == MaxPool {
		return "max"
	}
	return "avg"
}

// PoolAttrs parameterizes spatial pooling.
type PoolAttrs struct {
	Type             PoolType
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
	PadMode          PadMode
	Global           bool // pool over the whole spatial extent
	// CountIncludePad: when true, average pooling divides by the full
	// kernel area even where the window overlaps padding (Caffe style).
	CountIncludePad bool
}

// EltwiseType selects the elementwise binary reduction.
type EltwiseType uint8

const (
	EltSum EltwiseType = iota
	EltProd
	EltMax
	EltSub
)

func (e EltwiseType) String() string {
	switch e {
	case EltSum:
		return "sum"
	case EltProd:
		return "prod"
	case EltMax:
		return "max"
	case EltSub:
		return "sub"
	default:
		return fmt.Sprintf("EltwiseType(%d)", uint8(e))
	}
}

// EltwiseAttrs parameterizes Eltwise.
type EltwiseAttrs struct {
	Type EltwiseType
	// Fused activation.
	ReLU bool
}

// ConcatAttrs parameterizes Concat. Only Axis==1 (channel) is exercised by
// the benchmark networks but any axis is supported.
type ConcatAttrs struct{ Axis int }

// BatchNormAttrs parameterizes batch normalization (inference form).
// Constants (mean/var/gamma/beta) live in the graph weight table under the
// node's extra input names.
type BatchNormAttrs struct{ Eps float32 }

// ScaleAttrs parameterizes channelwise scale+shift.
type ScaleAttrs struct{ HasBias bool }

// InnerProductAttrs parameterizes fully-connected layers. Weight layout is
// [out, in]; bias [out].
type InnerProductAttrs struct {
	OutputCount int
	ReLU        bool
}

// SoftmaxAttrs parameterizes softmax.
type SoftmaxAttrs struct{ Axis int }

// FlattenAttrs flattens from Axis onward into one dimension.
type FlattenAttrs struct{ Axis int }

// ReshapeAttrs reshapes to Shape; a -1 entry is inferred.
type ReshapeAttrs struct{ Shape []int }

// DropoutAttrs is inference-time identity; kept so converted graphs round-trip.
type DropoutAttrs struct{ Ratio float32 }

// PaddingAttrs zero-pads spatial dims.
type PaddingAttrs struct{ Top, Bottom, Left, Right int }

// InputAttrs declares a graph input shape.
type InputAttrs struct{ Shape []int }

// LayerNormAttrs parameterizes layer normalization over the last axis.
// Gamma/beta constants live in the weight table under the node's
// WeightNames (each shaped [D] where D is the last input dim).
type LayerNormAttrs struct{ Eps float32 }

// MatMulAttrs parameterizes MatMul in its three forms:
//
//   - Weight form (Heads == 0): one activation input [.., M, K] times a
//     constant weight WeightNames[0] shaped [K, N]; optional bias
//     WeightNames[1] shaped [N]. Leading dims are flattened into rows.
//   - Batched QK form (Heads >= 1, TransposeB): two activation inputs
//     [B, LA, D] x [B, LB, D] with D divisible by Heads, producing
//     per-head scores [B, Heads*LA, LB].
//   - Batched AV form (Heads >= 1, !TransposeB): [B, Heads*LA, LB] x
//     [B, LB, D] producing [B, LA, D].
//
// Scale, when non-zero, multiplies every output element (attention's
// 1/sqrt(d_head)); it is applied as a single multiply after the dot
// product so the result is bitwise independent of row chunking.
//
// Residual exists only in a session's own graph (optimizer.FuseResidual):
// the weight form then reads a second activation input, shaped like its
// output, and stores its sum with the product.
type MatMulAttrs struct {
	Heads      int
	TransposeB bool
	Scale      float32
	Residual   Residual
}

// Residual says whether and in which operand order a weight-form MatMul adds
// its second input to its product: the order of the two-input EltSum it
// took over, whose first operand's NaN payload wins when both are NaN.
type Residual uint8

const (
	NoResidual     Residual = iota
	ResidualAfter           // product + residual
	ResidualBefore          // residual + product
)

// AttentionAttrs parameterizes OpAttention: inputs q [B, LA, D], k and v
// [B, LB, D], output [B, LA, D]; per (batch, head) the scores
// (q·kᵀ)·QKScale, their last-axis softmax, then (probabilities·v)·AVScale —
// the QK MatMul's, the Softmax's and the AV MatMul's arithmetic, element for
// element. A zero scale means 1, as in MatMulAttrs.
type AttentionAttrs struct {
	Heads            int
	QKScale, AVScale float32
}

// TransposeAttrs permutes tensor axes: output dim i = input dim Perm[i].
type TransposeAttrs struct{ Perm []int }
