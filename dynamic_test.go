package mnn_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mnn"
	"mnn/internal/tensor"
)

// openDynamicTransformer opens the transformer built-in planned at the given
// maximum [batch, seqLen, dim] shape.
func openDynamicTransformer(t *testing.T, maxShape []int, opts ...mnn.Option) *mnn.Engine {
	t.Helper()
	opts = append([]mnn.Option{mnn.WithMaxInputShapes(map[string][]int{"tokens": maxShape})}, opts...)
	eng, err := mnn.Open("transformer", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestDynamicTransformerMatchesReference plans the transformer once at the
// max shape and runs it at several smaller batch/sequence-length combinations
// without re-preparation, checking each against the reference oracle at that
// exact shape.
func TestDynamicTransformerMatchesReference(t *testing.T) {
	eng := openDynamicTransformer(t, []int{4, 16, 32}, mnn.WithThreads(2))
	g, err := mnn.BuildNetwork("transformer")
	if err != nil {
		t.Fatal(err)
	}
	shapes := [][]int{
		{1, 16, 32}, // max sequence length
		{1, 8, 32},  // shorter sequence
		{2, 12, 32}, // batched, mid length
		{4, 16, 32}, // full plan
		{3, 5, 32},  // odd length, odd batch
		{1, 8, 32},  // repeat shape → cached plan
		{1, 1, 32},  // single token
	}
	for _, shape := range shapes {
		t.Run(fmt.Sprint(shape), func(t *testing.T) {
			in := tensor.New(shape...)
			tensor.FillRandom(in, uint64(31*shape[0]+shape[1]), 1)
			out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.EqualShape(out["prob"].Shape(), []int{shape[0], shape[1], 10}) {
				t.Fatalf("output shape %v, want [%d %d 10]", out["prob"].Shape(), shape[0], shape[1])
			}
			ref, err := mnn.RunReference(g, map[string]*mnn.Tensor{"tokens": in})
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(ref["prob"], out["prob"]); d > 2e-4 {
				t.Fatalf("dynamic engine differs from reference by %g at shape %v", d, shape)
			}
		})
	}
}

// TestDynamicShapeOutOfPlan pins the satellite-2 contract: a request whose
// shape does not fit the planned maximum must fail with ErrShapeOutOfPlan
// before any arena byte is touched — never silently read or write out of
// plan — and the engine must keep serving in-plan shapes afterwards.
func TestDynamicShapeOutOfPlan(t *testing.T) {
	eng := openDynamicTransformer(t, []int{2, 16, 32})
	ctx := context.Background()
	good := tensor.New(1, 8, 32)
	tensor.FillRandom(good, 1, 1)
	want, err := eng.Infer(ctx, map[string]*mnn.Tensor{"tokens": good})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		shape []int
	}{
		{"seq-too-long", []int{1, 32, 32}},
		{"batch-too-big", []int{3, 16, 32}},
		{"feature-dim-too-big", []int{1, 16, 64}},
		{"rank-mismatch-low", []int{16, 32}},
		{"rank-mismatch-high", []int{1, 1, 16, 32}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tensor.New(tc.shape...)
			_, err := eng.Infer(ctx, map[string]*mnn.Tensor{"tokens": in})
			if !errors.Is(err, mnn.ErrShapeOutOfPlan) {
				t.Fatalf("Infer(%v) = %v, want ErrShapeOutOfPlan", tc.shape, err)
			}
		})
	}

	// Unknown input names keep the static typed error.
	if _, err := eng.Infer(ctx, map[string]*mnn.Tensor{"wrong": good}); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("unknown input = %v, want ErrInputShape", err)
	}

	// The rejections must not have corrupted the plan: the original in-plan
	// shape still produces bitwise-identical output.
	got, err := eng.Infer(ctx, map[string]*mnn.Tensor{"tokens": good})
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "after rejected requests", got, want)

	// A spatial shape inside the planned max that changes the features a
	// fully-connected layer reads is outside the plan too, and so is
	// refused before its input is copied in.
	t.Run("fc-features-change", func(t *testing.T) {
		g, err := mnn.ParseJSONModel(strings.NewReader(flatFCJSON))
		if err != nil {
			t.Fatal(err)
		}
		// A static engine prepared at that shape fails to open, naming the fc.
		if _, err := mnn.Open(g, mnn.WithInputShapes(map[string][]int{"data": {1, 3, 6, 6}})); err == nil || !strings.Contains(err.Error(), `"fc"`) {
			t.Fatalf("Open at 6×6 into an 8×8 flatten→fc: %v, want an error naming the fc", err)
		}
		eng, err := mnn.Open(g, mnn.WithMaxInputShapes(map[string][]int{"data": {2, 3, 8, 8}}))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		in := map[string]*mnn.Tensor{"data": tensor.NewRandom(5, 1, 2, 3, 8, 8)}
		want, err := eng.Infer(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Infer(ctx, map[string]*mnn.Tensor{"data": tensor.NewRandom(6, 1, 2, 3, 6, 6)})
		if !errors.Is(err, mnn.ErrShapeOutOfPlan) || !strings.Contains(err.Error(), `"fc"`) {
			t.Fatalf("6×6 into an 8×8 flatten→fc: %v, want ErrShapeOutOfPlan naming the fc", err)
		}
		got, err := eng.Infer(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "fc after rejected request", got, want)
	})
}

// flatFCJSON is a conv whose whole feature map feeds a fully-connected
// layer, so its input size fixes the spatial shape: 8×8 gives the 4·8·8
// features its weight holds.
const flatFCJSON = `{
  "name": "flatfc",
  "inputs": ["data"],
  "outputs": ["fc"],
  "nodes": [
    {"name": "data", "op": "Input", "attrs": {"shape": [1, 3, 8, 8]}},
    {"name": "conv", "op": "Conv2D", "inputs": ["data"], "weights": ["wc", "bc"],
     "attrs": {"kernel": [3], "pad": [1], "outputs": 4, "relu": true}},
    {"name": "flat", "op": "Flatten", "inputs": ["conv"], "attrs": {"axis": 1}},
    {"name": "fc", "op": "InnerProduct", "inputs": ["flat"], "weights": ["wf", "bf"],
     "attrs": {"outputs": 5}}
  ],
  "weights": [
    {"name": "wc", "shape": [4, 3, 3, 3], "init": "random", "seed": 1, "scale": 0.3},
    {"name": "bc", "shape": [4], "init": "random", "seed": 2, "scale": 0.1},
    {"name": "wf", "shape": [5, 256], "init": "random", "seed": 3, "scale": 0.1},
    {"name": "bf", "shape": [5], "init": "random", "seed": 4, "scale": 0.1}
  ]
}`

// TestDynamicOptionValidation: WithMaxInputShapes composes only with the
// plans that can actually re-derive shapes per run.
func TestDynamicOptionValidation(t *testing.T) {
	dyn := mnn.WithMaxInputShapes(map[string][]int{"tokens": {1, 16, 32}})
	// Conv-family networks re-derive NC4HW4 geometry per run, at both
	// precisions.
	for _, p := range []mnn.Precision{mnn.PrecisionFP32, mnn.PrecisionInt8} {
		eng, err := mnn.Open("mobilenet-v1", mnn.WithPrecision(p),
			mnn.WithMaxInputShapes(map[string][]int{"data": {1, 3, 224, 224}}))
		if err != nil {
			t.Errorf("dynamic shapes on a conv network at %v: %v", p, err)
			continue
		}
		eng.Close()
	}
	if _, err := mnn.Open("transformer", dyn, mnn.WithoutPreparation()); err == nil {
		t.Error("dynamic + WithoutPreparation must fail")
	}
	if _, err := mnn.Open("transformer", dyn, mnn.WithForwardType(mnn.ForwardOpenCL), mnn.WithDevice("Mate20")); !errors.Is(err, mnn.ErrUnknownBackend) {
		t.Error("dynamic + GPU forward must fail with ErrUnknownBackend")
	}
	// Degenerate dims rejected at Open.
	if _, err := mnn.Open("transformer", mnn.WithMaxInputShapes(map[string][]int{"tokens": {1, 0, 32}})); err == nil {
		t.Error("zero max dim must fail")
	}
}

// TestDynamicInferIntoZeroAllocs pins the zero-allocation steady state for
// dynamic shapes: once a shape's plan is cached, InferInto at that shape —
// including alternating between two shapes — allocates nothing, on the
// transformer and on a conv network (its staging views re-bounded per run).
func TestDynamicInferIntoZeroAllocs(t *testing.T) {
	t.Run("transformer", func(t *testing.T) {
		eng := openDynamicTransformer(t, []int{2, 16, 32}, mnn.WithThreads(2))
		assertAlternatingZeroAllocs(t, eng, "tokens", "prob",
			[]int{1, 8, 32}, []int{2, 16, 32}, func(s []int) []int { return []int{s[0], s[1], 10} })
	})
	t.Run("mobilenet-v1", func(t *testing.T) {
		eng, err := mnn.Open("mobilenet-v1", mnn.WithThreads(2),
			mnn.WithMaxInputShapes(map[string][]int{"data": {2, 3, 64, 64}}))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		assertAlternatingZeroAllocs(t, eng, "data", "prob",
			[]int{1, 3, 48, 48}, []int{2, 3, 64, 64}, func(s []int) []int { return []int{s[0], 1000} })
	})
}

// assertAlternatingZeroAllocs warms eng at shapes a and b, then requires
// InferInto at a, and at a and b in turn, to allocate nothing.
func assertAlternatingZeroAllocs(t *testing.T, eng *mnn.Engine, input, output string, a, b []int, outShape func([]int) []int) {
	t.Helper()
	ctx := context.Background()
	mk := func(shape []int, seed uint64) (map[string]*mnn.Tensor, map[string]*mnn.Tensor) {
		inputs := map[string]*mnn.Tensor{input: tensor.NewRandom(seed, 1, shape...)}
		outputs := map[string]*mnn.Tensor{output: tensor.New(outShape(shape)...)}
		if err := eng.InferInto(ctx, inputs, outputs); err != nil {
			t.Fatal(err)
		}
		return inputs, outputs
	}
	inA, outA := mk(a, 3)
	inB, outB := mk(b, 4)

	if allocs := testing.AllocsPerRun(5, func() {
		if err := eng.InferInto(ctx, inA, outA); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("repeat-shape InferInto allocated %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := eng.InferInto(ctx, inA, outA); err != nil {
			t.Fatal(err)
		}
		if err := eng.InferInto(ctx, inB, outB); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("alternating-shape InferInto allocated %.1f objects/op, want 0", allocs)
	}
}

// TestDynamicTunedMatchesUntuned: a cost-tuned dynamic engine has no
// convolution to decide and runs the same packed GEMMs, so tuned output must
// equal untuned output exactly at every in-plan shape.
func TestDynamicTunedMatchesUntuned(t *testing.T) {
	plain := openDynamicTransformer(t, []int{2, 16, 32})
	tuned := openDynamicTransformer(t, []int{2, 16, 32}, mnn.WithTuning(mnn.TuningCost))
	for _, shape := range [][]int{{1, 16, 32}, {2, 7, 32}} {
		in := tensor.New(shape...)
		tensor.FillRandom(in, 17, 1)
		a, err := plain.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
		if err != nil {
			t.Fatal(err)
		}
		b, err := tuned.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
		if err != nil {
			t.Fatal(err)
		}
		ad, bd := a["prob"].Data(), b["prob"].Data()
		for i := range ad {
			if ad[i] != bd[i] {
				t.Fatalf("shape %v: tuned differs from untuned at %d: %g vs %g", shape, i, ad[i], bd[i])
			}
		}
	}
}

// BenchmarkDynamicTransformerInferInto measures steady-state dynamic-shape
// inference at several sequence lengths against one plan-once engine —
// the per-run cost of re-deriving shapes is what's on trial here, since
// the static engine can only ever run one of these lengths.
func BenchmarkDynamicTransformerInferInto(b *testing.B) {
	eng, err := mnn.Open("transformer",
		mnn.WithMaxInputShapes(map[string][]int{"tokens": {1, 16, 32}}), mnn.WithThreads(2))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for _, seq := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("seq%d", seq), func(b *testing.B) {
			in := tensor.New(1, seq, 32)
			tensor.FillRandom(in, uint64(seq), 1)
			inputs := map[string]*mnn.Tensor{"tokens": in}
			outputs := map[string]*mnn.Tensor{"prob": tensor.New(1, seq, 10)}
			if err := eng.InferInto(ctx, inputs, outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.InferInto(ctx, inputs, outputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDynamicShapesAccessor: DynamicShapes reports the planned maxima on a
// dynamic engine and nil on a static one.
func TestDynamicShapesAccessor(t *testing.T) {
	eng := openDynamicTransformer(t, []int{2, 16, 32})
	ds := eng.DynamicShapes()
	if ds == nil || !tensor.EqualShape(ds["tokens"], []int{2, 16, 32}) {
		t.Fatalf("DynamicShapes() = %v", ds)
	}
	// Returned map is a copy.
	ds["tokens"][0] = 99
	if eng.DynamicShapes()["tokens"][0] != 2 {
		t.Fatal("DynamicShapes must return a copy")
	}

	static, err := mnn.Open("transformer")
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	if static.DynamicShapes() != nil {
		t.Fatal("static engine must report nil DynamicShapes")
	}
}
