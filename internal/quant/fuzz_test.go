package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// FuzzMulInt8 cross-checks the packed int8 GEMM (signed and unsigned-A
// modes) against the naive matmul reference on fuzzed shapes and data.
// Integer accumulation is exact, so any disagreement is a real bug.
func FuzzMulInt8(f *testing.F) {
	f.Add(uint8(3), uint8(17), uint8(5), []byte{1, 2, 3, 255, 0, 7})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0x80})
	f.Add(uint8(4), uint8(64), uint8(33), []byte{9, 0, 0, 0, 128, 127})
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, data []byte) {
		m := int(mRaw)%6 + 1
		k := int(kRaw)%70 + 1
		n := int(nRaw)%40 + 1
		at := func(i int) int8 {
			if len(data) == 0 {
				return 0
			}
			return int8(data[i%len(data)])
		}
		a := make([]int8, m*k)
		b := make([]int8, k*n)
		for i := range a {
			a[i] = at(i)
		}
		for i := range b {
			b[i] = at(i + m*k)
		}
		want := make([]int32, m*n)
		matmul.MulInt8Ref(want, a, b, m, k, n)
		got := make([]int32, m*n)
		pb := matmul.PackBInt8(b, k, n)
		pb.MulInto(got, a, m, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PackedBInt8 (%d,%d,%d) element %d: got %d want %d", m, k, n, i, got[i], want[i])
			}
		}
		// Unsigned-A mode: reinterpret the fuzzed bytes as 0..255 rows and
		// verify against a widened reference.
		au := make([]uint8, m*k)
		for i := range au {
			au[i] = uint8(a[i])
		}
		wantU := make([]int32, m*n)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				av := int32(au[i*k+p])
				for j := 0; j < n; j++ {
					wantU[i*n+j] += av * int32(b[p*n+j])
				}
			}
		}
		gotU := make([]int32, m*n)
		pb.MulRows(gotU, au, m, true)
		for i := range wantU {
			if gotU[i] != wantU[i] {
				t.Fatalf("unsigned MulRows (%d,%d,%d) element %d: got %d want %d", m, k, n, i, gotU[i], wantU[i])
			}
		}
	})
}

// FuzzQuantizeRoundTrip: for any finite float32 tensor, quantize→dequantize
// must err by at most scale/2 per element (symmetric rounding), and exact
// zeros must survive exactly.
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f}) // near-max float32
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 4
		if n == 0 {
			return
		}
		vals := make([]float32, n)
		for i := 0; i < n; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			vals[i] = v
		}
		tt := tensor.FromData(vals, n)
		q := QuantizeTensor(tt)
		scale := float64(q.Quant.Scale)
		if scale <= 0 {
			t.Fatalf("non-positive scale %v", scale)
		}
		d, err := q.Dequantize()
		if err != nil {
			t.Fatal(err)
		}
		// scale/2 rounding plus one ulp of the scale multiply.
		budget := scale/2 + scale*1e-5
		for i, v := range vals {
			got := d.Data()[i]
			if v == 0 && got != 0 {
				t.Fatalf("exact zero at %d round-tripped to %v", i, got)
			}
			if diff := math.Abs(float64(v) - float64(got)); diff > budget {
				t.Fatalf("element %d: |%v - %v| = %g > scale/2 = %g", i, v, got, diff, budget)
			}
		}
	})
}
