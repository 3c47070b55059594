// Package mnn is a pure-Go reproduction of MNN, the universal and efficient
// mobile inference engine of Jiang et al. (MLSys 2020).
//
// The API exposes the engine as a concurrent facade:
//
//	eng, _ := mnn.Open("mobilenet-v1", mnn.WithThreads(4), mnn.WithPoolSize(4))
//	defer eng.Close()
//	out, _ := eng.Infer(ctx, map[string]*mnn.Tensor{"data": img})
//	prob := out["prob"]
//
// Open runs the paper's pre-inference (Section 3.2) — shape inference,
// Equation 4–5 backend selection, Equation 2–3 computation-scheme selection
// per convolution, Figure 3 memory planning, and constant pre-computation
// (Winograd weight transforms, packed kernels, command buffers) — once per
// pooled session. Infer is then pure compute, safe from any number of
// goroutines, and honours context cancellation between pipeline operators.
package mnn

import (
	"fmt"
	"io"
	"os"

	"mnn/internal/converter"
	"mnn/internal/core"
	"mnn/internal/device"
	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/optimizer"
	"mnn/internal/quant"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

// Tensor is the dense tensor type of the engine (see Data, Shape, CopyFrom).
type Tensor = tensor.Tensor

// NewTensor allocates a zero-filled float32 NCHW tensor — the shape Infer
// expects for its inputs. Fill it via Data() or CopyFrom.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Graph is a loaded or built computational graph.
type Graph = graph.Graph

// SessionStats summarizes what pre-inference decided.
type SessionStats = session.Stats

// ForwardType selects the preferred backend family, mirroring
// MNNForwardType in the original API.
type ForwardType int

const (
	// ForwardAuto lets the Equation 4–5 cost model choose among every
	// backend available on the device.
	ForwardAuto ForwardType = iota
	// ForwardCPU pins execution to the CPU backend.
	ForwardCPU
	// ForwardMetal/OpenCL/OpenGL/Vulkan prefer the given (simulated) GPU
	// API with CPU fallback for unsupported operators.
	ForwardMetal
	ForwardOpenCL
	ForwardOpenGL
	ForwardVulkan
)

// LoadGraph reads a serialized .mnng model into a graph.
func LoadGraph(r io.Reader) (*Graph, error) { return converter.Load(r) }

// LoadGraphFile reads a serialized .mnng model from disk into a graph.
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return converter.Load(f)
}

// Profile is a per-operator timing breakdown (see Engine.InferProfiled).
type Profile = session.Profile

// --- model utilities ---

// BuildNetwork constructs one of the built-in benchmark networks:
// mobilenet-v1, mobilenet-v2, squeezenet-v1.0, squeezenet-v1.1, resnet-18,
// resnet-50, inception-v3, vgg-16. Unknown names fail with ErrUnknownNetwork.
func BuildNetwork(name string) (*Graph, error) {
	g, err := models.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (see mnn.Networks())", ErrUnknownNetwork, name)
	}
	return g, nil
}

// Networks lists the built-in network names.
func Networks() []string { return models.Names() }

// Optimize runs the offline fusion/replacement passes in place.
func Optimize(g *Graph) error { return optimizer.Optimize(g) }

// SaveModel serializes a graph to the binary model format.
func SaveModel(g *Graph, w io.Writer) error { return converter.Save(g, w) }

// SaveModelFile serializes a graph to disk.
func SaveModelFile(g *Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := converter.Save(g, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseJSONModel reads the pseudo-ONNX JSON frontend format.
func ParseJSONModel(r io.Reader) (*Graph, error) { return converter.ParseJSON(r) }

// QuantizeWeights applies int8 post-training weight quantization in place,
// returning the number of tensors quantized and bytes saved.
func QuantizeWeights(g *Graph) (count int, savedBytes int64) { return quant.QuantizeWeights(g) }

// Calibrate runs the sample inputs through an fp32 CPU session and records
// symmetric per-tensor activation scales (max-abs observer) into the graph,
// where SaveModel persists them. Engines opened from the calibrated graph
// with WithPrecision(PrecisionInt8) then quantize activations with fixed
// scales instead of deriving them per sample.
func Calibrate(g *Graph, samples []map[string]*Tensor) (map[string]float32, error) {
	return quant.Calibrate(g, samples)
}

// CalibrateSynthetic calibrates with n deterministic random samples shaped
// from the graph's declared inputs (mnnconvert -calibrate).
func CalibrateSynthetic(g *Graph, n int, seed uint64) (map[string]float32, error) {
	return quant.CalibrateSynthetic(g, n, seed)
}

// PruneWeights magnitude-prunes conv/FC filters to the target sparsity
// (the model-slimming tool of the paper's future work), returning the
// achieved zero fraction.
func PruneWeights(g *Graph, sparsity float64) float64 {
	return quant.PruneWeights(g, sparsity).Sparsity()
}

// MeasureHostFLOPS micro-benchmarks the basic matrix-multiplication unit
// and returns achieved MACs/second — the auto-tuned replacement for the
// Appendix C capability heuristic (the paper's future work item 1).
func MeasureHostFLOPS() float64 { return core.MeasureHostFLOPS(256, 3).FLOPS }

// RunReference executes the naive reference interpreter (the correctness
// oracle) on the given inputs.
func RunReference(g *Graph, inputs map[string]*Tensor) (map[string]*Tensor, error) {
	return session.RunReference(g, inputs)
}

// Devices lists the simulated device profile names.
func Devices() []string {
	all := device.All()
	names := make([]string, len(all))
	for i, d := range all {
		names[i] = d.Name
	}
	return names
}

// SelectConvScheme exposes the Equation 2–3 scheme decision for one
// convolution configuration (used by the schemetuner example and tooling).
func SelectConvScheme(a *graph.Conv2DAttrs, inputShape []int) core.ConvDecision {
	return core.SelectConvScheme(a, inputShape)
}
