package mnn_test

// Cross-path conformance suite: for every built-in model the int8 engine
// must agree with the fp32 engine within a per-model error budget, and the
// int8 path must preserve the serving tier's batched≡unbatched bitwise
// guarantee. Budgets are pinned ~20–100× above the currently observed
// deviation so a real accuracy regression (a broken requantization, a wrong
// scale) trips them while quantization noise does not.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"mnn"
	"mnn/internal/optimizer"
	"mnn/internal/tensor"
	"mnn/serve"
)

// int8ConformanceCases lists every built-in model with a small-shape input
// (inception's stride tree needs 107; vgg-16's flatten→fc pins 224) and its
// max-abs output error budget. Observed deviations on these shapes are
// 0.7e-6 – 9e-6 (post-softmax probabilities).
var int8ConformanceCases = []struct {
	net    string
	hw     int
	budget float64
	heavy  bool // skipped in -short mode (race CI runs -short)
}{
	{"mobilenet-v1", 64, 1e-4, false},
	{"mobilenet-v2", 64, 1e-4, false},
	{"squeezenet-v1.0", 64, 1e-4, false},
	{"squeezenet-v1.1", 64, 1e-4, false},
	{"resnet-18", 64, 2e-4, false},
	{"resnet-50", 64, 2e-4, true},
	{"inception-v3", 107, 2e-4, true},
	{"vgg-16", 224, 2e-4, true},
}

// calibrated builds a network, resizes it to the test shape and calibrates
// it with one deterministic sample.
func calibrated(t *testing.T, net string, hw int) (*mnn.Graph, string, *mnn.Tensor) {
	t.Helper()
	g, err := mnn.BuildNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	input := g.InputNames[0]
	sample := tensor.NewRandom(7, 1, 1, 3, hw, hw)
	if _, err := mnn.Calibrate(g, []map[string]*mnn.Tensor{{input: sample}}); err != nil {
		t.Fatal(err)
	}
	return g, input, sample
}

func TestInt8ConformanceBuiltinModels(t *testing.T) {
	for _, tc := range int8ConformanceCases {
		t.Run(tc.net, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy model in -short mode")
			}
			g, input, sample := calibrated(t, tc.net, tc.hw)
			shapes := map[string][]int{input: {1, 3, tc.hw, tc.hw}}
			plan, err := optimizer.PlanInt8(g, shapes)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Int8Nodes == 0 {
				t.Fatalf("int8 plan covers no nodes — the conformance run would be vacuous")
			}
			inputs := map[string]*mnn.Tensor{input: sample}
			outs := map[mnn.Precision]map[string]*mnn.Tensor{}
			for _, p := range []mnn.Precision{mnn.PrecisionFP32, mnn.PrecisionInt8} {
				eng, err := mnn.Open(g, mnn.WithThreads(2), mnn.WithInputShapes(shapes), mnn.WithPrecision(p))
				if err != nil {
					t.Fatal(err)
				}
				out, err := eng.Infer(context.Background(), inputs)
				eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				outs[p] = out
			}
			for name, ref := range outs[mnn.PrecisionFP32] {
				d := tensor.MaxAbsDiff(ref, outs[mnn.PrecisionInt8][name])
				if d > tc.budget {
					t.Errorf("output %q: int8 deviates %.3e from fp32, budget %.1e (%d int8 nodes)",
						name, d, tc.budget, plan.Int8Nodes)
				}
			}
		})
	}
}

// TestInt8BatchedUnbatchedBitwise: an int8 engine prepared at batch N must
// produce, for each stacked sample, bit-for-bit the outputs of a batch-1
// engine — the invariant the serving micro-batcher splits results on. Both
// scale modes are covered: calibrated (fixed scales) and dynamic (the
// per-sample max-abs fallback, which would break here if it ever looked
// across the whole batch).
func TestInt8BatchedUnbatchedBitwise(t *testing.T) {
	const batch, hw = 3, 64
	for _, calibrate := range []bool{true, false} {
		name := "dynamic"
		if calibrate {
			name = "calibrated"
		}
		t.Run(name, func(t *testing.T) {
			g, err := mnn.BuildNetwork("mobilenet-v1")
			if err != nil {
				t.Fatal(err)
			}
			input := g.InputNames[0]
			if calibrate {
				if _, err := mnn.Calibrate(g, []map[string]*mnn.Tensor{
					{input: tensor.NewRandom(9, 1, 1, 3, hw, hw)}}); err != nil {
					t.Fatal(err)
				}
			}
			open := func(n int) *mnn.Engine {
				eng, err := mnn.Open(g, mnn.WithThreads(2), mnn.WithPrecision(mnn.PrecisionInt8),
					mnn.WithInputShapes(map[string][]int{input: {n, 3, hw, hw}}))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() })
				return eng
			}
			batched, single := open(batch), open(1)

			stacked := mnn.NewTensor(batch, 3, hw, hw)
			singles := make([]*mnn.Tensor, batch)
			per := 3 * hw * hw
			for n := 0; n < batch; n++ {
				// Distinct magnitudes per sample so a batch-wide dynamic
				// scale would produce different quantizations.
				singles[n] = tensor.NewRandom(uint64(20+n), float32(n+1), 1, 3, hw, hw)
				copy(stacked.Data()[n*per:(n+1)*per], singles[n].Data())
			}
			ctx := context.Background()
			outB, err := batched.Infer(ctx, map[string]*mnn.Tensor{input: stacked})
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < batch; n++ {
				outS, err := single.Infer(ctx, map[string]*mnn.Tensor{input: singles[n]})
				if err != nil {
					t.Fatal(err)
				}
				for oname, s := range outS {
					b := outB[oname]
					perOut := s.NumElements()
					bd := b.Data()[n*perOut : (n+1)*perOut]
					for i, v := range s.Data() {
						if bd[i] != v {
							t.Fatalf("sample %d output %q[%d]: batched %v != single %v",
								n, oname, i, bd[i], v)
						}
					}
				}
			}
		})
	}
}

// TestThreadCountBitwise pins that the fp32 engine's output does not depend
// on the thread count: every kernel computes an output element from the same
// operands in the same order whichever lane runs it, and the pointwise GEMM
// (matmul.PackedB) computes each row from that row alone, so how rows are
// split over lanes cannot change a bit. Full-size mobilenet-v1: its 7×7
// layers give odd per-lane row blocks at 2 and 3 lanes.
func TestThreadCountBitwise(t *testing.T) {
	g, err := mnn.BuildNetwork("mobilenet-v1")
	if err != nil {
		t.Fatal(err)
	}
	input := g.InputNames[0]
	run := func(threads int) map[string]*mnn.Tensor {
		eng, err := mnn.Open(g, mnn.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		in := tensor.NewRandom(7, 1, eng.InputShape(input)...)
		out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{input: in})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, threads := range []int{2, 3} {
		for name, got := range run(threads) {
			w := want[name].Data()
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(w[i]) {
					t.Fatalf("output %q[%d]: %d threads %v != 1 thread %v", name, i, threads, v, w[i])
				}
			}
		}
	}
}

// TestInt8ServingBatchedBitwise drives the real serving stack: a registry
// model with the micro-batcher in front of an int8 engine must answer
// concurrent requests bit-identically to a plain unbatched int8 engine.
func TestInt8ServingBatchedBitwise(t *testing.T) {
	const hw = 64
	g, input, _ := calibrated(t, "squeezenet-v1.1", hw)
	shapes := map[string][]int{input: {1, 3, hw, hw}}

	reg := serve.NewRegistry()
	defer reg.Close()
	if err := reg.Load("sq-int8", serve.ModelConfig{
		Model: g,
		Options: []mnn.Option{mnn.WithThreads(2), mnn.WithPoolSize(2),
			mnn.WithInputShapes(shapes), mnn.WithPrecision(mnn.PrecisionInt8)},
		Batch: serve.BatchConfig{MaxBatch: 4},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Get("sq-int8")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Batching() {
		t.Fatal("batcher not active")
	}
	md, err := m.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	if md.Precision != "int8" {
		t.Fatalf("metadata precision %q, want int8", md.Precision)
	}
	ref, err := mnn.Open(g, mnn.WithThreads(2), mnn.WithInputShapes(shapes),
		mnn.WithPrecision(mnn.PrecisionInt8))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const requests = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			in := tensor.NewRandom(uint64(100+r), float32(r%3+1), 1, 3, hw, hw)
			got, err := m.Infer(ctx, map[string]*mnn.Tensor{input: in})
			if err != nil {
				errs <- err
				return
			}
			want, err := ref.Infer(ctx, map[string]*mnn.Tensor{input: in})
			if err != nil {
				errs <- err
				return
			}
			for name, w := range want {
				gd := got[name].Data()
				for i, v := range w.Data() {
					if gd[i] != v {
						errs <- fmt.Errorf("request %d output %q[%d]: batched %v != unbatched %v",
							r, name, i, gd[i], v)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
