package mnn_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mnn"
	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// winogradOnlyGraph is a small network whose every convolution takes the
// Winograd scheme (3×3, 1×7 and 7×1, stride 1; channel counts on both sides
// of a pack; image sizes that leave clipped edge tiles), with a max pool
// between them.
func winogradOnlyGraph() *graph.Graph {
	g := graph.New("winograd-only")
	g.AddNode(&graph.Node{Name: "in", Op: graph.OpInput, Outputs: []string{"in"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 8, 38, 42}}})
	prev, ic := "in", 8
	conv := func(name string, oc, kh, kw int, relu, relu6 bool) {
		w := tensor.NewRandom(uint64(len(g.Nodes))*7+1, 0.3, oc, ic, kh, kw)
		b := tensor.NewRandom(uint64(len(g.Nodes))*7+2, 0.1, oc)
		g.AddWeight(name+"_w", w)
		g.AddWeight(name+"_b", b)
		g.AddNode(&graph.Node{Name: name, Op: graph.OpConv2D, Inputs: []string{prev}, Outputs: []string{name},
			WeightNames: []string{name + "_w", name + "_b"},
			Attrs: &graph.Conv2DAttrs{KernelH: kh, KernelW: kw, StrideH: 1, StrideW: 1, PadH: kh / 2, PadW: kw / 2,
				Group: 1, InputCount: ic, OutputCount: oc, ReLU: relu, ReLU6: relu6}})
		prev, ic = name, oc
	}
	conv("c1", 16, 3, 3, true, false)
	conv("c2", 22, 3, 3, false, true)
	g.AddNode(&graph.Node{Name: "pool", Op: graph.OpPool, Inputs: []string{prev}, Outputs: []string{"pool"},
		Attrs: &graph.PoolAttrs{Type: graph.MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}})
	prev = "pool"
	conv("c3", 20, 1, 7, true, false)
	conv("c4", 20, 7, 1, false, false)
	conv("c5", 12, 3, 3, true, false)
	g.InputNames, g.OutputNames = []string{"in"}, []string{prev}
	return g
}

// TestWinogradGraphBitsPinned pins the Winograd scheme's bits at the engine
// level: the output of a Winograd-only network, hashed. The transforms give
// the bits they gave when they still ran channel by channel in scalar Go;
// the per-position GEMM between them rounds once per multiply-add (fma32,
// VFMADD231PS), which moved the hash once, from baeffa97bd7cd72f — taken on
// amd64 before the pack-wise transforms, with multiply and add rounded
// separately — to the one below. The kernel-level differential test is
// TestWinogradMatchesParentRouteBitwise; this one covers the route through
// scheme selection, the planner's workspace and the pool.
func TestWinogradGraphBitsPinned(t *testing.T) {
	g := winogradOnlyGraph()
	for _, threads := range []int{1, 3} {
		eng, err := mnn.Open(g, mnn.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if sc := eng.Stats().SchemeCounts; len(sc) != 1 || sc["winograd"] != 5 {
			t.Fatalf("schemes %v: the graph is meant to be Winograd only", sc)
		}
		in := tensor.NewRandom(99, 1, eng.InputShape("in")...)
		out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"in": in})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, v := range out["c5"].Data() {
			bits := math.Float32bits(v)
			h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
		}
		const want = "68260cbefb2a6a7a"
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Fatalf("%d threads: output hash %s, pinned %s", threads, got, want)
		}
	}
}
