package mnn_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnn"
	"mnn/internal/tensor"
)

const tinyModelJSON = `{
  "name": "tiny",
  "inputs": ["data"],
  "outputs": ["prob"],
  "nodes": [
    {"name": "data", "op": "Input", "attrs": {"shape": [1, 3, 16, 16]}},
    {"name": "conv1", "op": "Conv2D", "inputs": ["data"], "weights": ["w1", "b1"],
     "attrs": {"kernel": [3], "pad": [1], "outputs": 8, "relu": true}},
    {"name": "dw", "op": "Conv2D", "inputs": ["conv1"], "weights": ["w2", "b2"],
     "attrs": {"kernel": [3], "pad": [1], "group": 8, "outputs": 8, "relu": true}},
    {"name": "pw", "op": "Conv2D", "inputs": ["dw"], "weights": ["w3", "b3"],
     "attrs": {"kernel": [1], "outputs": 16}},
    {"name": "gap", "op": "Pool", "inputs": ["pw"], "attrs": {"type": "avg", "global": true}},
    {"name": "flat", "op": "Flatten", "inputs": ["gap"], "attrs": {"axis": 1}},
    {"name": "prob", "op": "Softmax", "inputs": ["flat"], "attrs": {"axis": 1}}
  ],
  "weights": [
    {"name": "w1", "shape": [8, 3, 3, 3], "init": "random", "seed": 1, "scale": 0.3},
    {"name": "b1", "shape": [8], "init": "random", "seed": 2, "scale": 0.1},
    {"name": "w2", "shape": [8, 1, 3, 3], "init": "random", "seed": 3, "scale": 0.3},
    {"name": "b2", "shape": [8], "init": "random", "seed": 4, "scale": 0.1},
    {"name": "w3", "shape": [16, 8, 1, 1], "init": "random", "seed": 5, "scale": 0.3},
    {"name": "b3", "shape": [16], "init": "random", "seed": 6, "scale": 0.1}
  ]
}`

func tinyModel(t *testing.T) *mnn.Graph {
	t.Helper()
	g, err := mnn.ParseJSONModel(strings.NewReader(tinyModelJSON))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestQuickstartWorkflow(t *testing.T) {
	g := tinyModel(t)
	if err := mnn.Optimize(g); err != nil {
		t.Fatal(err)
	}
	eng, err := mnn.Open(g, mnn.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tmp := tensor.New(eng.InputShape("data")...)
	tensor.FillRandom(tmp, 42, 1)
	outs, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": tmp})
	if err != nil {
		t.Fatal(err)
	}
	out := outs["prob"]
	var sum float64
	for _, v := range out.Data() {
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax sum %v", sum)
	}
	// Must agree with the reference oracle.
	ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": tmp})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], out); d > 1e-4 {
		t.Fatalf("engine differs from reference by %g", d)
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	g := tinyModel(t)
	path := filepath.Join(t.TempDir(), "tiny.mnng")
	if err := mnn.SaveModelFile(g, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := mnn.LoadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Nodes) != len(g.Nodes) {
		t.Fatal("node count changed through file round trip")
	}
	if _, err := mnn.LoadGraphFile(filepath.Join(t.TempDir(), "missing.mnng")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}
}

func TestQuantizedModelStillWorks(t *testing.T) {
	g := tinyModel(t)
	count, saved := mnn.QuantizeWeights(g)
	if count == 0 || saved <= 0 {
		t.Fatalf("quantize: %d, %d", count, saved)
	}
	var buf bytes.Buffer
	if err := mnn.SaveModel(g, &buf); err != nil {
		t.Fatal(err)
	}
	eng, err := mnn.Open(&buf, mnn.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tmp := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(tmp, 7, 1)
	outs, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": tmp})
	if err != nil {
		t.Fatal(err)
	}
	// int8 quantization error on this tiny model should stay small.
	ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": tmp})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], outs["prob"]); d > 0.05 {
		t.Fatalf("quantized output error %g", d)
	}
}

func TestNetworksAndDevicesLists(t *testing.T) {
	if len(mnn.Networks()) != 9 {
		t.Fatalf("networks: %v", mnn.Networks())
	}
	found := false
	for _, d := range mnn.Devices() {
		if d == "Mate20" {
			found = true
		}
	}
	if !found {
		t.Fatalf("devices: %v", mnn.Devices())
	}
	if _, err := mnn.BuildNetwork("mobilenet-v1"); err != nil {
		t.Fatal(err)
	}
}
