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
	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// signedInt8Graph is a chain of 1×1 convolutions, all int8 at every int8
// level, whose first two quantize signed inputs (the graph input, then an
// un-activated output) — the mode the built-ins, where every int8 layer but
// the stem follows a ReLU, rarely take. Channel counts sit on both sides of
// a pack and a panel; the second convolution has a stride. The layers are
// wide enough for the int8 route to be priced cheaper than fp32 on every
// level (core.Int8ConvSupported): a 7 → 18 1×1 runs faster in fp32.
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
	conv("c1", 250, 1, false)
	conv("c2", 250, 2, true)
	conv("c3", 74, 1, false)
	g.InputNames, g.OutputNames = []string{"data"}, []string{prev}
	return g
}

// TestInt8GraphBitsPinned pins the int8 path's bits at the engine level: the
// hashed outputs of int8 engines, calibrated or not, on one lane or three.
// The int8 kernels of every level compute the same bits, and so do the fp32
// ones, so an output depends on the int8 partition alone; the partition
// follows the host's int8 level (core.Int8ConvSupported prices each
// convolution with that level's rates), so each row pins one hash per level,
// picked by matmul.Int8ISA(); the amx entries are the avx512vnni ones,
// copied: the amx kernels compute the VNNI kernels' sums and partition with
// their rates, so matching those hashes is their proof. The built-ins are hashed at the input of their
// closing Softmax, the last tensor the int8 route decides, and also carry
// their fp32 layers — the convolutions the partition leaves in fp32 and
// whatever feeds an int8 layer. Those run on the fp32 GEMM, whose move to one
// rounding per multiply-add (fma32, VFMADD231PS) moved the four built-in
// hashes once — squeezenet-v1.1 from 776df81bba071aee / 7675913a99dbd165,
// resnet-18 from 0e29b09bb8e881f4 / 305179c637ee552f (uncalibrated /
// calibrated). Pricing the int8 route per convolution moved them again, per
// level, from squeezenet-v1.1 254254ea437ff481 / a6de43d7db1f3183 and
// resnet-18 f4b613f2241a3fed / 7903e44a5045d16f, when every 1×1 convolution
// and no 3×3 one ran int8 on every level. At 64² on avx512vnni squeezenet-v1.1
// runs 24 of its 26 convolutions int8 (all but fire2_squeeze and
// fire3_squeeze) and resnet-18 all 20 and its fully-connected layer; avx2 and
// portable partitions are the decision table's at 64². signedInt8Graph, the
// signed quantization mode, is all int8 on every level; its layers were
// widened for that, which moved its hashes from dac8ad5c58adb2d1 /
// 2245126dc309a3fe, pinned since the int8 route was quantize+im2col, a SWAR
// GEMM and a requantizing scatter. The kernel-level differential tests are
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
	level := matmul.Int8ISA()
	for _, tc := range []struct {
		net        string
		calibrated bool
		want       map[string]string // matmul.Int8ISA() → hash
	}{
		{"squeezenet-v1.1", false, map[string]string{
			"amx": "c0462d215526e889", "avx512vnni": "c0462d215526e889", "avx2": "b5adfc70af41e8f7", "portable": "df4530ca23f975a4"}},
		{"squeezenet-v1.1", true, map[string]string{
			"amx": "9f855004e5c7232e", "avx512vnni": "9f855004e5c7232e", "avx2": "24f67a281cbd95f5", "portable": "67d34413c6e9bd51"}},
		{"resnet-18", false, map[string]string{
			"amx": "e67ca3c9af75117d", "avx512vnni": "e67ca3c9af75117d", "avx2": "bb9a834a22cd00aa", "portable": "05883b76ea0930bc"}},
		{"resnet-18", true, map[string]string{
			"amx": "392a5c567ac8a090", "avx512vnni": "392a5c567ac8a090", "avx2": "571d3b6e13687ee2", "portable": "16ce57fb1fbb3b22"}},
		{"int8-signed", false, map[string]string{
			"amx": "c89b143d3294f003", "avx512vnni": "c89b143d3294f003", "avx2": "c89b143d3294f003", "portable": "c89b143d3294f003"}},
		{"int8-signed", true, map[string]string{
			"amx": "0d4a32885fc8b1f3", "avx512vnni": "0d4a32885fc8b1f3", "avx2": "0d4a32885fc8b1f3", "portable": "0d4a32885fc8b1f3"}},
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
			if tc.net == "int8-signed" && eng.Stats().SchemeCounts["int8-gemm"] != 3 {
				t.Fatalf("schemes %v: the graph is meant to be three int8 1×1 convolutions", eng.Stats().SchemeCounts)
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
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want[level] {
				t.Errorf("%s calibrated=%v, %d threads, int8 %s: output hash %s, pinned %s", tc.net, tc.calibrated, threads, level, got, tc.want[level])
			}
		}
	}
}
