package quant

import (
	"fmt"

	"mnn/internal/backend"
	"mnn/internal/cpu"
	"mnn/internal/graph"
	"mnn/internal/sched"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

// Calibrate runs each sample through an fp32 CPU session and records a
// symmetric per-tensor activation scale (max-abs observer: scale =
// maxAbs/127, 1 for tensors that stay exactly zero) for every activation in
// the graph, writing the result into g.ActScales and returning it. The
// converter persists the table (format v2) so an engine opened with
// mnn.WithPrecision(mnn.PrecisionInt8) can quantize activations with fixed
// scales instead of deriving them per sample.
//
// Each sample maps every declared graph input to a tensor of its declared
// (or first sample's) shape. Calibration reuses one prepared session, so it
// costs N ordinary inferences plus one max-abs pass per activation.
func Calibrate(g *graph.Graph, samples []map[string]*tensor.Tensor) (map[string]float32, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("quant: Calibrate needs at least one sample")
	}
	shapes := map[string][]int{}
	for name, t := range samples[0] {
		shapes[name] = t.Shape()
	}
	bk := cpu.New(cpu.Config{Threads: 1, Pool: sched.New(1)})
	s, err := session.New(g, session.Config{
		Backends:    []backend.Backend{bk},
		InputShapes: shapes,
		Unfused:     true, // every activation gets its range
	})
	if err != nil {
		return nil, fmt.Errorf("quant: calibration session: %w", err)
	}
	defer s.Close()

	maxAbsByName := map[string]float32{}
	observe := func(n *graph.Node, outs []*tensor.Tensor) {
		for i, name := range n.Outputs {
			if i >= len(outs) || outs[i] == nil {
				continue
			}
			// MaxAbs scans logical elements only: NC4HW4 pad lanes of
			// arena-backed tensors can hold stale bytes from recycled
			// buffers and must not leak into the observed range.
			if m := float32(outs[i].MaxAbs()); m > maxAbsByName[name] {
				maxAbsByName[name] = m
			}
		}
	}
	for i, sample := range samples {
		for name, t := range sample {
			in := s.Input(name)
			if in == nil {
				return nil, fmt.Errorf("quant: sample %d names unknown input %q", i, name)
			}
			if !tensor.EqualShape(in.Shape(), t.Shape()) {
				return nil, fmt.Errorf("quant: sample %d input %q has shape %v, want %v",
					i, name, t.Shape(), in.Shape())
			}
			in.CopyFrom(t)
		}
		if err := s.RunObserved(nil, observe); err != nil {
			return nil, fmt.Errorf("quant: calibration run %d: %w", i, err)
		}
	}

	scales := make(map[string]float32, len(maxAbsByName))
	for name, m := range maxAbsByName {
		scales[name] = tensor.QuantScale(float64(m))
	}
	g.ActScales = scales
	return scales, nil
}

// CalibrateSynthetic calibrates with n deterministic random samples shaped
// from the graph's declared inputs — the zero-dependency path mnnconvert
// -calibrate uses when no representative dataset is at hand.
func CalibrateSynthetic(g *graph.Graph, n int, seed uint64) (map[string]float32, error) {
	if n < 1 {
		n = 1
	}
	var inputs []*graph.Node
	for _, node := range g.Nodes {
		if node.Op == graph.OpInput {
			inputs = append(inputs, node)
		}
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("quant: graph %q has no declared inputs", g.Name)
	}
	samples := make([]map[string]*tensor.Tensor, n)
	for i := range samples {
		sample := map[string]*tensor.Tensor{}
		for _, node := range inputs {
			a := node.Attrs.(*graph.InputAttrs)
			if len(a.Shape) == 0 {
				return nil, fmt.Errorf("quant: input %q declares no shape", node.Name)
			}
			seed++
			sample[node.Outputs[0]] = tensor.NewRandom(seed, 1, a.Shape...)
		}
		samples[i] = sample
	}
	return Calibrate(g, samples)
}
