// Package models builds the benchmark networks of the paper's evaluation:
// MobileNet-v1/v2, SqueezeNet-v1.0/v1.1, ResNet-18/50 and Inception-v3.
// Weights are synthetic but deterministic (DESIGN.md substitution #5),
// scaled by fan-in so activations stay bounded through deep networks.
package models

import (
	"fmt"
	"math"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// builder accumulates a graph with auto-named weights.
type builder struct {
	g    *graph.Graph
	seed uint64
}

func newBuilder(name string, seed uint64) *builder {
	return &builder{g: graph.New(name), seed: seed}
}

func (b *builder) weight(name string, scale float32, shape ...int) string {
	t := tensor.New(shape...)
	b.seed++
	tensor.FillRandom(t, b.seed, scale)
	b.g.AddWeight(name, t)
	return name
}

// heScale returns a fan-in normalized weight scale.
func heScale(fanIn int) float32 {
	return float32(math.Sqrt(2.0 / float64(fanIn)))
}

func (b *builder) input(name string, shape ...int) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpInput, Outputs: []string{name},
		Attrs: &graph.InputAttrs{Shape: append([]int(nil), shape...)}})
	b.g.InputNames = append(b.g.InputNames, name)
	return name
}

// convOpts tweaks the conv builder.
type convOpts struct {
	kh, kw, sh, sw, ph, pw int
	dilation               int
	group                  int
	relu, relu6            bool
	noBias                 bool
}

func (b *builder) conv(name, in string, ic, oc int, o convOpts) string {
	if o.kw == 0 {
		o.kw = o.kh
	}
	if o.sh == 0 {
		o.sh = 1
	}
	if o.sw == 0 {
		o.sw = o.sh
	}
	if o.group == 0 {
		o.group = 1
	}
	if o.dilation == 0 {
		o.dilation = 1
	}
	wname := b.weight(name+"_w", heScale(ic/o.group*o.kh*o.kw), oc, ic/o.group, o.kh, o.kw)
	names := []string{wname}
	if !o.noBias {
		names = append(names, b.weight(name+"_b", 0.1, oc))
	}
	b.g.AddNode(&graph.Node{
		Name: name, Op: graph.OpConv2D,
		Inputs: []string{in}, Outputs: []string{name},
		WeightNames: names,
		Attrs: &graph.Conv2DAttrs{
			KernelH: o.kh, KernelW: o.kw,
			StrideH: o.sh, StrideW: o.sw,
			DilationH: o.dilation, DilationW: o.dilation,
			PadH: o.ph, PadW: o.pw,
			Group: o.group, InputCount: ic, OutputCount: oc,
			ReLU: o.relu, ReLU6: o.relu6,
		},
	})
	return name
}

func (b *builder) batchNorm(name, in string, c int) string {
	g := b.weight(name+"_gamma", 0, c)
	// Gamma around 1, variance positive.
	gt := b.g.Weights[g]
	for i := range gt.Data() {
		gt.Data()[i] = float32(gt.Data()[i]*0.1) + 1 // the same weights on every architecture: not fused
	}
	beta := b.weight(name+"_beta", 0.1, c)
	mean := b.weight(name+"_mean", 0.1, c)
	vname := b.weight(name+"_var", 0, c)
	vt := b.g.Weights[vname]
	for i := range vt.Data() {
		vt.Data()[i] = float32(vt.Data()[i]*0.05) + 1
	}
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpBatchNorm,
		Inputs: []string{in}, Outputs: []string{name},
		WeightNames: []string{g, beta, mean, vname},
		Attrs:       &graph.BatchNormAttrs{Eps: 1e-5}})
	return name
}

func (b *builder) relu(name, in string) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpReLU,
		Inputs: []string{in}, Outputs: []string{name}})
	return name
}

func (b *builder) maxPool(name, in string, k, s, p int) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpPool,
		Inputs: []string{in}, Outputs: []string{name},
		Attrs: &graph.PoolAttrs{Type: graph.MaxPool, KernelH: k, KernelW: k,
			StrideH: s, StrideW: s, PadH: p, PadW: p}})
	return name
}

func (b *builder) avgPool(name, in string, k, s, p int) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpPool,
		Inputs: []string{in}, Outputs: []string{name},
		Attrs: &graph.PoolAttrs{Type: graph.AvgPool, KernelH: k, KernelW: k,
			StrideH: s, StrideW: s, PadH: p, PadW: p}})
	return name
}

func (b *builder) globalAvgPool(name, in string) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpPool,
		Inputs: []string{in}, Outputs: []string{name},
		Attrs: &graph.PoolAttrs{Type: graph.AvgPool, Global: true}})
	return name
}

func (b *builder) concat(name string, ins ...string) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpConcat,
		Inputs: ins, Outputs: []string{name},
		Attrs: &graph.ConcatAttrs{Axis: 1}})
	return name
}

func (b *builder) add(name string, ins ...string) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpEltwise,
		Inputs: ins, Outputs: []string{name},
		Attrs: &graph.EltwiseAttrs{Type: graph.EltSum}})
	return name
}

func (b *builder) fc(name, in string, features, out int) string {
	w := b.weight(name+"_w", heScale(features), out, features)
	bias := b.weight(name+"_b", 0.1, out)
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpInnerProduct,
		Inputs: []string{in}, Outputs: []string{name},
		WeightNames: []string{w, bias},
		Attrs:       &graph.InnerProductAttrs{OutputCount: out}})
	return name
}

func (b *builder) softmax(name, in string, axis int) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpSoftmax,
		Inputs: []string{in}, Outputs: []string{name},
		Attrs: &graph.SoftmaxAttrs{Axis: axis}})
	return name
}

func (b *builder) dropout(name, in string) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpDropout,
		Inputs: []string{in}, Outputs: []string{name},
		Attrs: &graph.DropoutAttrs{Ratio: 0.5}})
	return name
}

func (b *builder) finish(outputs ...string) *graph.Graph {
	b.g.OutputNames = outputs
	if err := b.g.Validate(); err != nil {
		panic(fmt.Sprintf("models: %s invalid: %v", b.g.Name, err))
	}
	return b.g
}

// ByName builds a network by its benchmark name.
func ByName(name string) (*graph.Graph, error) {
	switch name {
	case "mobilenet-v1":
		return MobileNetV1(), nil
	case "mobilenet-v2":
		return MobileNetV2(), nil
	case "squeezenet-v1.0":
		return SqueezeNetV10(), nil
	case "squeezenet-v1.1":
		return SqueezeNetV11(), nil
	case "resnet-18":
		return ResNet18(), nil
	case "resnet-50":
		return ResNet50(), nil
	case "inception-v3":
		return InceptionV3(), nil
	case "vgg-16":
		return VGG16(), nil
	case "transformer":
		return Transformer(), nil
	default:
		return nil, fmt.Errorf("models: unknown network %q", name)
	}
}

// Names lists the available networks.
func Names() []string {
	return []string{"mobilenet-v1", "mobilenet-v2", "squeezenet-v1.0",
		"squeezenet-v1.1", "resnet-18", "resnet-50", "inception-v3", "vgg-16",
		"transformer"}
}

func (b *builder) flatten(name, in string) string {
	b.g.AddNode(&graph.Node{Name: name, Op: graph.OpFlatten,
		Inputs: []string{in}, Outputs: []string{name},
		Attrs: &graph.FlattenAttrs{Axis: 1}})
	return name
}
