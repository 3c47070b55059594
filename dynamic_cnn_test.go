package mnn_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mnn"
	"mnn/internal/tensor"
)

// dynamicCNNCases are the conv networks opened with WithMaxInputShapes at
// [3, 3, S, S]: each runs at S and at a reduced spatial shape s. The -short
// sizes keep the race job fast; inception's stride tree keeps it large.
var dynamicCNNCases = []struct {
	net                string
	full, reduced      int
	shortFull, shortRd int
}{
	{"mobilenet-v1", 64, 48, 32, 24},
	{"mobilenet-v2", 64, 48, 32, 24},
	{"squeezenet-v1.1", 64, 48, 32, 24},
	{"resnet-18", 64, 48, 32, 24},
	{"inception-v3", 107, 75, 75, 69},
}

// TestDynamicCNNBatchedBitwise plans each conv network once at
// [3, 3, S, S], fp32 and int8, and runs it at S, at a reduced spatial shape
// and at S again, all without re-preparation. At each shape the batch-3 run
// must equal three batch-1 runs on the same engine bit for bit (the serving
// batcher splits results on this), it must stay within tolerance of
// RunReference, and the last run at S must reproduce the first bit for bit.
func TestDynamicCNNBatchedBitwise(t *testing.T) {
	for _, tc := range dynamicCNNCases {
		for _, p := range []mnn.Precision{mnn.PrecisionFP32, mnn.PrecisionInt8} {
			t.Run(tc.net+"/"+p.String(), func(t *testing.T) {
				full, reduced := tc.full, tc.reduced
				if testing.Short() {
					full, reduced = tc.shortFull, tc.shortRd
				}
				g, err := mnn.BuildNetwork(tc.net)
				if err != nil {
					t.Fatal(err)
				}
				input := g.InputNames[0]
				eng, err := mnn.Open(g, mnn.WithThreads(2), mnn.WithPrecision(p),
					mnn.WithMaxInputShapes(map[string][]int{input: {3, 3, full, full}}))
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				// The conformance suites' budget: fp32 against the float64
				// oracle, and int8 against fp32.
				const tol = 2e-4
				var first map[string]*mnn.Tensor
				for i, hw := range []int{full, reduced, full} {
					batch := tensor.NewRandom(uint64(hw), 1, 3, 3, hw, hw)
					out := inferDynamic(t, eng, input, batch)
					assertBatchSplits(t, eng, input, batch, out)
					if i == 2 {
						assertBitwise(t, fmt.Sprintf("%d² after %d²", hw, reduced), out, first)
						break
					}
					if i == 0 {
						first = out
					}
					ref, err := mnn.RunReference(g, map[string]*mnn.Tensor{input: batch})
					if err != nil {
						t.Fatal(err)
					}
					for name, r := range ref {
						if d := tensor.MaxAbsDiff(r, out[name]); d > tol {
							t.Errorf("%d²: output %q differs from the reference by %.3g (tolerance %.0e)", hw, name, d, tol)
						}
					}
				}
			})
		}
	}
}

func inferDynamic(t *testing.T, eng *mnn.Engine, input string, in *mnn.Tensor) map[string]*mnn.Tensor {
	t.Helper()
	out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{input: in})
	if err != nil {
		t.Fatalf("infer %v: %v", in.Shape(), err)
	}
	return out
}

// assertBatchSplits runs every sample of batch alone on eng and compares it
// with its slice of the batched outputs, bit for bit.
func assertBatchSplits(t *testing.T, eng *mnn.Engine, input string, batch *mnn.Tensor, out map[string]*mnn.Tensor) {
	t.Helper()
	s := batch.Shape()
	per := tensor.NumElements(s[1:])
	for n := 0; n < s[0]; n++ {
		one := tensor.FromData(batch.Data()[n*per:(n+1)*per], append([]int{1}, s[1:]...)...)
		single := inferDynamic(t, eng, input, one)
		for name, o := range single {
			k := o.NumElements()
			b := out[name].Data()[n*k : (n+1)*k]
			for i, v := range o.Data() {
				if math.Float32bits(v) != math.Float32bits(b[i]) {
					t.Fatalf("%v sample %d output %q[%d]: batched %v != alone %v", s, n, name, i, b[i], v)
				}
			}
		}
	}
}

func assertBitwise(t *testing.T, label string, got, want map[string]*mnn.Tensor) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if !tensor.EqualShape(g.Shape(), w.Shape()) {
			t.Fatalf("%s: output %q shape %v, want %v", label, name, g.Shape(), w.Shape())
		}
		for i, v := range w.Data() {
			if math.Float32bits(v) != math.Float32bits(g.Data()[i]) {
				t.Fatalf("%s: output %q[%d] = %v, want %v", label, name, i, g.Data()[i], v)
			}
		}
	}
}
