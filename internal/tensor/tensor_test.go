package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNumElements(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{}, 1},
		{[]int{5}, 5},
		{[]int{2, 3}, 6},
		{[]int{1, 3, 224, 224}, 150528},
		{[]int{4, 0, 2}, 0},
	}
	for _, c := range cases {
		if got := NumElements(c.shape); got != c.want {
			t.Errorf("NumElements(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestUpDivAlignUp(t *testing.T) {
	if UpDiv(7, 4) != 2 || UpDiv(8, 4) != 2 || UpDiv(9, 4) != 3 || UpDiv(0, 4) != 0 {
		t.Fatal("UpDiv wrong")
	}
	if AlignUp(7, 4) != 8 || AlignUp(8, 4) != 8 || AlignUp(1, 16) != 16 {
		t.Fatal("AlignUp wrong")
	}
}

func TestPhysicalLenNC4HW4(t *testing.T) {
	// 3 channels pad to 4, 5 channels pad to 8.
	if got := PhysicalLen(NC4HW4, []int{1, 3, 2, 2}); got != 1*1*2*2*4 {
		t.Errorf("PhysicalLen c=3: %d", got)
	}
	if got := PhysicalLen(NC4HW4, []int{2, 5, 3, 3}); got != 2*2*3*3*4 {
		t.Errorf("PhysicalLen c=5: %d", got)
	}
	if got := PhysicalLen(NCHW, []int{2, 5, 3, 3}); got != 90 {
		t.Errorf("PhysicalLen NCHW: %d", got)
	}
}

func TestSetAtAcrossLayouts(t *testing.T) {
	for _, layout := range []Layout{NCHW, NHWC, NC4HW4} {
		tt := NewWithLayout(layout, 2, 5, 3, 4)
		want := map[[4]int]float32{}
		r := NewRNG(7)
		for n := 0; n < 2; n++ {
			for c := 0; c < 5; c++ {
				for h := 0; h < 3; h++ {
					for w := 0; w < 4; w++ {
						v := r.Float32()
						tt.Set(n, c, h, w, v)
						want[[4]int{n, c, h, w}] = v
					}
				}
			}
		}
		for k, v := range want {
			if got := tt.At(k[0], k[1], k[2], k[3]); got != v {
				t.Fatalf("%s: At%v = %v, want %v", layout, k, got, v)
			}
		}
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	src := NewRandom(42, 1, 2, 7, 5, 6)
	for _, mid := range []Layout{NHWC, NC4HW4} {
		conv := src.ToLayout(mid)
		back := conv.ToLayout(NCHW)
		if MaxAbsDiff(src, back) != 0 {
			t.Errorf("round trip through %s not exact", mid)
		}
	}
}

func TestLayoutRoundTripProperty(t *testing.T) {
	f := func(seed uint64, cRaw, hRaw, wRaw uint8) bool {
		c := int(cRaw)%13 + 1
		h := int(hRaw)%9 + 1
		w := int(wRaw)%9 + 1
		src := NewRandom(seed, 1, 1, c, h, w)
		return MaxAbsDiff(src, src.ToLayout(NC4HW4).ToLayout(NCHW)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNC4HW4PaddingIsZero(t *testing.T) {
	tt := NewWithLayout(NC4HW4, 1, 3, 2, 2)
	tt.Fill(1)
	// Physical buffer has channel 3 (the pad slot) interleaved; every 4th
	// element with index%4==3 must remain zero.
	for i, v := range tt.Data() {
		if i%4 == 3 && v != 0 {
			t.Fatalf("pad slot %d = %v, want 0", i, v)
		}
		if i%4 != 3 && v != 1 {
			t.Fatalf("data slot %d = %v, want 1", i, v)
		}
	}
}

func TestCopyFromCrossLayout(t *testing.T) {
	src := NewRandom(3, 1, 1, 6, 4, 4)
	dst := NewWithLayout(NC4HW4, 1, 6, 4, 4)
	dst.CopyFrom(src)
	if MaxAbsDiff(src, dst) != 0 {
		t.Fatal("cross-layout CopyFrom lost data")
	}
}

// TestCopyFromMatchesElementwise pins the row-wise NCHW ↔ NC4HW4 copies to
// the element-by-element copy they replaced, for every pair of layouts,
// channel counts on both sides of a pack boundary and a batch: every logical
// element arrives, and the pad lanes of an NC4HW4 destination (poisoned with
// NaN here, as a recycled arena slab may be) are left as they were.
func TestCopyFromMatchesElementwise(t *testing.T) {
	nan := float32(math.NaN())
	layouts := []Layout{NCHW, NHWC, NC4HW4}
	for _, c := range []int{1, 3, 4, 5, 8, 11} {
		for _, from := range layouts {
			for _, to := range layouts {
				logical := NewRandom(uint64(c), 1, 2, c, 3, 5)
				src := NewWithLayout(from, logical.Shape()...)
				for i := range src.Data() {
					src.Data()[i] = nan
				}
				dst := NewWithLayout(to, logical.Shape()...)
				for i := range dst.Data() {
					dst.Data()[i] = nan
				}
				logicalSet := func(x *Tensor) {
					for n := 0; n < 2; n++ {
						for ch := 0; ch < c; ch++ {
							for h := 0; h < 3; h++ {
								for w := 0; w < 5; w++ {
									x.Set(n, ch, h, w, logical.At(n, ch, h, w))
								}
							}
						}
					}
				}
				logicalSet(src)
				want := dst.Clone()
				logicalSet(want)
				dst.CopyFrom(src)
				for i, v := range dst.Data() {
					if w := want.Data()[i]; math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
						t.Fatalf("c=%d %s→%s: physical element %d = %v, elementwise copy leaves %v", c, from, to, i, v, w)
					}
				}
			}
		}
	}
}

// BenchmarkCopyFromLayouts times the engine's two layout conversions at an
// input image (a partial pack) and a mid-network activation.
func BenchmarkCopyFromLayouts(b *testing.B) {
	for _, s := range [][4]int{{1, 3, 224, 224}, {1, 64, 56, 56}} {
		planar := NewRandom(1, 1, s[:]...)
		packed := planar.ToLayout(NC4HW4)
		b.Run(fmt.Sprintf("pack/%dx%dx%d", s[1], s[2], s[3]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packed.CopyFrom(planar)
			}
		})
		b.Run(fmt.Sprintf("unpack/%dx%dx%d", s[1], s[2], s[3]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				planar.CopyFrom(packed)
			}
		})
	}
}

func TestReshape(t *testing.T) {
	src := NewRandom(9, 1, 2, 3, 4, 5)
	r := src.Reshape(6, 20)
	if r.Rank() != 2 || r.Dim(0) != 6 || r.Dim(1) != 20 {
		t.Fatalf("bad reshape dims: %v", r.Shape())
	}
	// Shared buffer: mutate through reshape, observe in src.
	r.Data()[0] = 123
	if src.Data()[0] != 123 {
		t.Fatal("Reshape must share the backing buffer")
	}
}

func TestReshapePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(7)
}

func TestCloneIndependence(t *testing.T) {
	a := NewRandom(11, 1, 1, 2, 2, 2)
	b := a.Clone()
	b.Data()[0] += 5
	if a.Data()[0] == b.Data()[0] {
		t.Fatal("Clone must deep copy")
	}
}

func TestWrapBuffer(t *testing.T) {
	buf := make([]float32, 100)
	tt := WrapBuffer(buf, NCHW, 2, 3, 4)
	if tt.NumElements() != 24 {
		t.Fatal("wrong element count")
	}
	tt.Data()[5] = 9
	if buf[5] != 9 {
		t.Fatal("WrapBuffer must alias the buffer")
	}
}

func TestAllClose(t *testing.T) {
	a := NewRandom(1, 1, 1, 2, 3, 3)
	b := a.Clone()
	if !AllClose(a, b, 0, 0) {
		t.Fatal("identical tensors must be close")
	}
	b.Data()[0] += 1e-3
	if AllClose(a, b, 0, 1e-5) {
		t.Fatal("should not be close at atol 1e-5")
	}
	if !AllClose(a, b, 0, 1e-2) {
		t.Fatal("should be close at atol 1e-2")
	}
}

func TestFromDataPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromData(make([]float32, 5), 2, 3)
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for OOB index")
		}
	}()
	New(1, 1, 2, 2).At(0, 0, 2, 0)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG must be deterministic")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped")
	}
}

func TestFillRandomRange(t *testing.T) {
	tt := New(1, 4, 8, 8)
	FillRandom(tt, 123, 0.5)
	for _, v := range tt.Data() {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("value %v outside [-0.5, 0.5)", v)
		}
	}
}

func TestInt8Tensor(t *testing.T) {
	q := QuantParams{Scale: 0.1}
	tt := NewInt8(q, 2, 3)
	if tt.DType() != Int8 || len(tt.Int8Data()) != 6 {
		t.Fatal("bad int8 tensor")
	}
	if tt.Quant.Scale != 0.1 {
		t.Fatal("quant params lost")
	}
}

func TestString(t *testing.T) {
	s := NewWithLayout(NC4HW4, 1, 64, 56, 56).String()
	if s != "Tensor[1,64,56,56] NC4HW4 float32" {
		t.Fatalf("String() = %q", s)
	}
}
