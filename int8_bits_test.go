package mnn_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"mnn"
	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// signedInt8Graph is a chain of 1×1 convolutions, all int8, whose first two
// quantize signed inputs (the graph input, then an un-activated output) —
// the mode the built-ins, where every int8 layer follows a ReLU, never take.
// Channel counts sit on both sides of a pack and a panel; the second
// convolution has a stride.
func signedInt8Graph() *graph.Graph {
	g := graph.New("int8-signed")
	g.AddNode(&graph.Node{Name: "data", Op: graph.OpInput, Outputs: []string{"data"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 7, 21, 22}}})
	prev, ic := "data", 7
	conv := func(name string, oc, stride int, relu bool) {
		g.AddWeight(name+"_w", tensor.NewRandom(uint64(len(g.Nodes))*7+1, 0.3, oc, ic, 1, 1))
		g.AddWeight(name+"_b", tensor.NewRandom(uint64(len(g.Nodes))*7+2, 0.1, oc))
		g.AddNode(&graph.Node{Name: name, Op: graph.OpConv2D, Inputs: []string{prev}, Outputs: []string{name},
			WeightNames: []string{name + "_w", name + "_b"},
			Attrs: &graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: stride, StrideW: stride,
				Group: 1, InputCount: ic, OutputCount: oc, ReLU: relu}})
		prev, ic = name, oc
	}
	conv("c1", 18, 1, false)
	conv("c2", 37, 2, true)
	conv("c3", 10, 1, false)
	g.InputNames, g.OutputNames = []string{"data"}, []string{prev}
	return g
}

// TestInt8GraphBitsPinned pins the int8 path's bits at the engine level: the
// hashed outputs of int8 engines, calibrated or not, on one lane or three.
// The int8-signed hashes, whose every layer is int8, equal what the engine
// produced before the AVX2 int8 micro-kernel, when int8 convolutions ran as
// quantize+im2col, a SWAR GEMM and a requantizing scatter (taken then, on
// amd64): integer sums are exact and the quantize and requantize arithmetic
// did not change, so the bits must not either. The built-ins are hashed at
// the input of their closing Softmax, the last tensor the int8 route
// decides, and also carry their fp32 layers — the 3×3 convolutions the int8
// partition leaves in fp32 and whatever feeds an int8 layer. Those run on the
// fp32 GEMM, whose move to one rounding per multiply-add (fma32,
// VFMADD231PS) moved the four built-in hashes once — squeezenet-v1.1 from
// 776df81bba071aee / 7675913a99dbd165, resnet-18 from 0e29b09bb8e881f4 /
// 305179c637ee552f (uncalibrated / calibrated) — while the int8-signed ones
// stayed. squeezenet-v1.1 has 17 int8 1×1 convolutions; resnet-18 adds
// strided ones and the int8 fully-connected layer; signedInt8Graph the
// signed quantization mode. The kernel-level differential tests are
// TestQuantConvMatchesParentRouteBitwise and
// TestInt8TapsSIMDMatchesPortableBitwise; this one covers the route through
// the planner's partition and workspace and the pool.
func TestInt8GraphBitsPinned(t *testing.T) {
	build := func(net string) (*graph.Graph, []int) {
		if net == "int8-signed" {
			return signedInt8Graph(), []int{1, 7, 21, 22}
		}
		g, err := mnn.BuildNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		last := g.Nodes[len(g.Nodes)-1]
		if last.Op != graph.OpSoftmax {
			t.Fatalf("%s ends in %v, not a Softmax", net, last.Op)
		}
		g.OutputNames = []string{last.Inputs[0]}
		return g, []int{1, 3, 64, 64}
	}
	for _, tc := range []struct {
		net        string
		calibrated bool
		want       string
	}{
		{"squeezenet-v1.1", false, "254254ea437ff481"},
		{"squeezenet-v1.1", true, "a6de43d7db1f3183"},
		{"resnet-18", false, "f4b613f2241a3fed"},
		{"resnet-18", true, "7903e44a5045d16f"},
		{"int8-signed", false, "dac8ad5c58adb2d1"},
		{"int8-signed", true, "2245126dc309a3fe"},
	} {
		g, shape := build(tc.net)
		in := tensor.NewRandom(77, 1, shape...)
		if tc.calibrated {
			if _, err := mnn.Calibrate(g, []map[string]*mnn.Tensor{{"data": tensor.NewRandom(78, 1, shape...)}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, threads := range []int{1, 3} {
			eng, err := mnn.Open(g, mnn.WithThreads(threads), mnn.WithInputShapes(map[string][]int{"data": shape}), mnn.WithPrecision(mnn.PrecisionInt8))
			if err != nil {
				t.Fatal(err)
			}
			if tc.net == "int8-signed" && eng.Stats().SchemeCounts["strassen-1x1"] != 3 {
				t.Fatalf("schemes %v: the graph is meant to be three GEMM-lowered 1×1 convolutions", eng.Stats().SchemeCounts)
			}
			out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(out))
			for name := range out {
				names = append(names, name)
			}
			sort.Strings(names)
			h := fnv.New64a()
			for _, name := range names {
				for _, v := range out[name].Data() {
					bits := math.Float32bits(v)
					h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("%s calibrated=%v, %d threads: output hash %s, pinned %s", tc.net, tc.calibrated, threads, got, tc.want)
			}
		}
	}
}
