package quant

import (
	"testing"
	"testing/quick"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/models"
	"mnn/internal/tensor"
)

// roundTripError is the worst absolute error quantizing and dequantizing w
// introduces.
func roundTripError(t *testing.T, w *tensor.Tensor) float64 {
	d, err := QuantizeTensor(w).Dequantize()
	if err != nil {
		t.Fatal(err)
	}
	return tensor.MaxAbsDiff(w, d)
}

func TestQuantizeRoundTripError(t *testing.T) {
	w := tensor.NewRandom(1, 0.5, 64, 32, 3, 3)
	// Symmetric int8: error bounded by scale/2 = maxAbs/254.
	if e := roundTripError(t, w); e > 0.5/254+1e-6 {
		t.Fatalf("quant error %g too large", e)
	}
}

// TestQuantizeZeroTensor pins the zero-scale handling: an exact-zero tensor
// quantizes at scale 1 (not 0) and round-trips back to exact zeros.
func TestQuantizeZeroTensor(t *testing.T) {
	z := tensor.New(4, 4)
	q := QuantizeTensor(z)
	if q.Quant.Scale != 1 {
		t.Fatalf("zero tensor scale %v, want 1 (scale 0 would lose the exact round trip)", q.Quant.Scale)
	}
	for _, qv := range q.Int8Data() {
		if qv != 0 {
			t.Fatal("zero tensor must quantize to exact zeros")
		}
	}
	if e := roundTripError(t, z); e != 0 {
		t.Fatalf("zero tensor round-trip error %g, want exactly 0", e)
	}
}

// TestDequantizeRejectsNonInt8 pins the error (not panic) contract on the
// untrusted model-load path.
func TestDequantizeRejectsNonInt8(t *testing.T) {
	if _, err := tensor.New(2, 2).Dequantize(); err == nil {
		t.Fatal("Dequantize(float32) must error")
	}
	q := QuantizeTensor(tensor.NewRandom(1, 0.5, 2, 2))
	if _, err := q.Dequantize(); err != nil {
		t.Fatalf("Dequantize(int8) must succeed: %v", err)
	}
}

func TestQuantizePropertyBounded(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		scale := float32(scaleRaw)/16 + 0.01
		w := tensor.NewRandom(seed, scale, 3, 5, 7)
		return roundTripError(t, w) <= float64(scale)/254+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMulInt8MatchesInt32(t *testing.T) {
	r := tensor.NewRNG(7)
	m, k, n := 5, 9, 6
	a := make([]int8, m*k)
	b := make([]int8, k*n)
	for i := range a {
		a[i] = int8(r.Intn(255) - 127)
	}
	for i := range b {
		b[i] = int8(r.Intn(255) - 127)
	}
	dst := make([]int32, m*n)
	matmul.MulInt8Ref(dst, a, b, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want int32
			for p := 0; p < k; p++ {
				want += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			if dst[i*n+j] != want {
				t.Fatalf("(%d,%d): got %d want %d", i, j, dst[i*n+j], want)
			}
		}
	}
}

func TestQuantizeWeightsGraph(t *testing.T) {
	g := models.SqueezeNetV11()
	count, saved := QuantizeWeights(g)
	if count < 20 {
		t.Fatalf("only %d weights quantized", count)
	}
	if saved < 1_000_000 {
		t.Fatalf("saved only %d bytes", saved)
	}
	// All conv filters now int8; biases float.
	for _, n := range g.Nodes {
		if n.Op != graph.OpConv2D {
			continue
		}
		if g.Weights[n.WeightNames[0]].DType() != tensor.Int8 {
			t.Fatalf("conv %q filter not quantized", n.Name)
		}
		if len(n.WeightNames) > 1 && g.Weights[n.WeightNames[1]].DType() != tensor.Float32 {
			t.Fatalf("conv %q bias must stay float", n.Name)
		}
	}
}
