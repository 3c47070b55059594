package mnn_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mnn"
	"mnn/internal/tensor"
)

// TestTransformerGraphBitsPinned pins the transformer built-in's bits at the
// engine level: the prob output of one dynamic engine, planned at
// [2, 16, 32], at lengths 16, 8 and 4 and batch 1 and 2, all hashed in that
// order. The hash was taken while the weight MatMul's bias, the softmax and
// LayerNorm rows still ran as scalar Go loops; their vector forms repeat
// those loops' roundings, so it must not move. Threads 1 and 3 give the same
// hash: a row's bits depend on that row alone.
func TestTransformerGraphBitsPinned(t *testing.T) {
	for _, threads := range []int{1, 3} {
		eng, err := mnn.Open("transformer", mnn.WithThreads(threads),
			mnn.WithMaxInputShapes(map[string][]int{"tokens": {2, 16, 32}}))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, batch := range []int{1, 2} {
			for _, seq := range []int{16, 8, 4} {
				in := tensor.New(batch, seq, 32)
				tensor.FillRandom(in, uint64(100*batch+seq), 1)
				out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
				if err != nil {
					eng.Close()
					t.Fatal(err)
				}
				for _, v := range out["prob"].Data() {
					bits := math.Float32bits(v)
					h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
				}
			}
		}
		eng.Close()
		const want = "d5ecda1cb1d8b795"
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Fatalf("%d threads: output hash %s, pinned %s", threads, got, want)
		}
	}
}

// TestTransformerModelBitsPinned holds the benchmark's own path to the hash
// TestTransformerGraphBitsPinned pins: BuildNetwork, Optimize, save, load,
// then the same dynamic engine, inputs and hash order at threads 1 and 3.
// Neither the optimizer's rewrites nor the model file may move an output
// bit.
func TestTransformerModelBitsPinned(t *testing.T) {
	g, err := mnn.BuildNetwork("transformer")
	if err != nil {
		t.Fatal(err)
	}
	if err := mnn.Optimize(g); err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := mnn.SaveModel(g, &model); err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3} {
		loaded, err := mnn.LoadGraph(bytes.NewReader(model.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := mnn.Open(loaded, mnn.WithThreads(threads),
			mnn.WithMaxInputShapes(map[string][]int{"tokens": {2, 16, 32}}))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, batch := range []int{1, 2} {
			for _, seq := range []int{16, 8, 4} {
				in := tensor.New(batch, seq, 32)
				tensor.FillRandom(in, uint64(100*batch+seq), 1)
				out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
				if err != nil {
					eng.Close()
					t.Fatal(err)
				}
				for _, v := range out["prob"].Data() {
					bits := math.Float32bits(v)
					h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
				}
			}
		}
		eng.Close()
		const want = "d5ecda1cb1d8b795"
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Fatalf("%d threads: output hash %s, pinned %s", threads, got, want)
		}
	}
}
