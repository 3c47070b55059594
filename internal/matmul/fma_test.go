package matmul

import (
	"math"
	"math/big"
	"testing"

	"mnn/internal/tensor"
)

// fmaExact is fma32's definition computed in exact arithmetic: a·b + c with
// math/big (the product of two float32 and their sum with a third span fewer
// than 600 bits), rounded once to the nearest float32, ties to even, with
// IEEE's signed zeros, overflow to ±Inf and gradual underflow. Infinite and
// NaN operands make an exact float64 result, which is used as is.
func fmaExact(a, b, c float32) float32 {
	if f := float64(a)*float64(b) + float64(c); math.IsInf(f, 0) || f != f {
		return float32(f)
	}
	x := new(big.Float).SetPrec(600).SetFloat64(float64(a))
	x.Mul(x, big.NewFloat(float64(b)))
	x.Add(x, big.NewFloat(float64(c)))
	f, _ := x.Float32()
	return f
}

// fmaHost runs a·b + c through the host's VFMADD231PS as mulPanel4x16 issues
// it, for up to four a and sixteen (b, c) pairs at once: a k = 2 product
// whose first term is c·1 from +0 (so a −0 c arrives as +0, as it does for
// fma32(c, 1, 0)) and whose second is a·b. out[r][l] is the result for
// (a[r], b[l], c[l]).
func fmaHost(out *[4][PanelWidth]float32, a *[4]float32, b, c *[PanelWidth]float32) {
	var rows [4][2]float32
	for r := range rows {
		rows[r] = [2]float32{1, a[r]}
	}
	var panel [2 * PanelWidth]float32
	copy(panel[:PanelWidth], c[:])
	copy(panel[PanelWidth:], b[:])
	mulPanel4x16(&out[0][0], PanelWidth, &rows[0][0], 2, 2, &panel[0], nil, 0, 0)
}

func bits32(u uint32) float32 { return math.Float32frombits(u) }

// fmaHardCases are triples whose correct rounding a shortcut gets wrong. hard
// marks those where the float64 sum rounded to float32 — what
// float32(math.FMA(…)) computes too — double-rounds away from want.
var fmaHardCases = []struct {
	name    string
	a, b, c float32
	want    float32
	hard    bool
}{
	// 2^-24·(1−2^-30) + (1+2^-23): the float64 sum is the midpoint
	// 1+2^-23+2^-24, which ties to even 0x3f800002; the exact sum is below it.
	{"double rounding at 1", bits32(0x33800100), bits32(0x3f7ffe00), bits32(0x3f800001), bits32(0x3f800001), true},
	{"double rounding at 1, negated", -bits32(0x33800100), bits32(0x3f7ffe00), -bits32(0x3f800001), -bits32(0x3f800001), true},
	// 2^-150·(1−2^-46) + (2^-127+2^-149): a denormal result whose float64 sum
	// is the midpoint of two denormals, 2^-150 below the exact one.
	{"double rounding among denormals", bits32(0x1a000001), bits32(0x19fffffe), bits32(0x00400001), bits32(0x00400001), true},
	// 2^103·(1−2^-46) + MaxFloat32: the float64 sum is the overflow threshold
	// MaxFloat32 + ulp/2, which rounds to +Inf; the exact sum stays finite.
	{"double rounding at overflow", bits32(0x59800001), bits32(0x58fffffe), math.MaxFloat32, math.MaxFloat32, true},
	{"overflow", bits32(0x59800000), bits32(0x59000001), math.MaxFloat32, float32(math.Inf(1)), false},
	{"overflow of the product", 3e38, -2, 1, float32(math.Inf(-1)), false},
	{"denormal tie to even zero", 0x1p-140, 0x1p-10, 0, 0, false},
	{"denormal tie to even two", 0x1p-75, 0x1p-75, 0x1p-149, 0x1p-148, false},
	{"denormal plus denormal", 0x1p-130, 0x1p-3, bits32(0x00000003), bits32(0x00010003), false},
	{"normal to denormal by cancellation", 0x1p-63, -0x1p-64, 0x1p-126, bits32(0x00400000), false},
	{"negative product below half the smallest denormal", -0x1p-100, 0x1p-100, 0, float32(math.Copysign(0, -1)), false},
	{"positive product below half the smallest denormal", 0x1p-100, 0x1p-100, float32(math.Copysign(0, -1)), 0, false},
	{"-0 product plus -0", float32(math.Copysign(0, -1)), 1, float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)), false},
	{"-0 product plus +0", float32(math.Copysign(0, -1)), 1, 0, 0, false},
	{"exact cancellation", 3, 5, -15, 0, false},
	{"+Inf product", float32(math.Inf(1)), 2, -3e38, float32(math.Inf(1)), false},
	{"-Inf addend", 3e38, 3e38, float32(math.Inf(-1)), float32(math.Inf(-1)), false},
	{"0·Inf", 0, float32(math.Inf(1)), 1, float32(math.NaN()), false},
	{"Inf − Inf", float32(math.Inf(1)), 1, float32(math.Inf(-1)), float32(math.NaN()), false},
	{"NaN a", bits32(0x7fc01234), 1, 1, float32(math.NaN()), false},
	{"NaN b", 1, bits32(0xffa00001), 1, float32(math.NaN()), false},
	{"NaN c", 1, 1, bits32(0x7f800001), float32(math.NaN()), false},
}

// TestFMA32HardCases pins fma32 on the triples that separate a correctly
// rounded fused multiply-add from its shortcuts, holds each one to the exact
// oracle and, where the host has the instruction, to VFMADD231PS.
func TestFMA32HardCases(t *testing.T) {
	for _, c := range fmaHardCases {
		got := fma32(c.a, c.b, c.c)
		if !sameBits(got, c.want) {
			t.Errorf("%s: fma32(%#08x, %#08x, %#08x) = %#08x, want %#08x", c.name,
				math.Float32bits(c.a), math.Float32bits(c.b), math.Float32bits(c.c), math.Float32bits(got), math.Float32bits(c.want))
		}
		if exact := fmaExact(c.a, c.b, c.c); !sameBits(exact, c.want) {
			t.Errorf("%s: the exact oracle gives %#08x, the table %#08x", c.name, math.Float32bits(exact), math.Float32bits(c.want))
		}
		if naive := float32(float64(c.a)*float64(c.b) + float64(c.c)); c.hard == sameBits(naive, c.want) {
			t.Errorf("%s: the float64 sum gives %#08x; the table says hard=%v", c.name, math.Float32bits(naive), c.hard)
		}
		if HaveAVX2() && math.Float32bits(c.c) != 0x80000000 {
			var out [4][PanelWidth]float32
			fmaHost(&out, &[4]float32{c.a, c.a, c.a, c.a}, &[PanelWidth]float32{c.b}, &[PanelWidth]float32{c.c})
			if !sameBits(out[0][0], c.want) {
				t.Errorf("%s: VFMADD231PS gives %#08x, the table %#08x", c.name, math.Float32bits(out[0][0]), math.Float32bits(c.want))
			}
		}
	}
}

// fmaDraw fills the four a of the rows and the sixteen (b, c) of the lanes
// of one fmaHost call with operands of the kind named by kind%4: raw random
// bits (NaN and Inf included); near-midpoint triples among denormals and
// among normal numbers, where lane l's b and c are made for row l%4's a so
// that a·b = ±(ulp(c)/2)·(1 − u²·2^-46) — the float64 sum is then a float32
// midpoint the exact sum is not when u is small enough for the tail to fall
// below half a float64 ulp of c; and sparse activations, zeros of both signs
// against anything and −0 accumulators.
func fmaDraw(r *tensor.RNG, kind int, a *[4]float32, b, c *[PanelWidth]float32) {
	word := func() uint32 { return uint32(r.Uint64()) }
	sign := func() uint32 { return uint32(r.Intn(2)) << 31 }
	tiny := func() float32 { return bits32(sign() | uint32(40+r.Intn(40))<<23 | word()&0x7fffff) }
	switch kind % 4 {
	case 0:
		for l := range b {
			a[l%4], b[l], c[l] = bits32(word()), bits32(word()), bits32(word())
		}
	case 1, 2:
		// Row i's a is 2^(ea−127)·(1 + u·2^-23). Lane l's c has the biased
		// exponent ec — 0 for a denormal in the denormal kind, every odd
		// lane of which instead draws tiny operands — so ulp(c)/2 is
		// 2^(max(ec, 1)−151), and b = 2^(eb−127)·(1 − u·2^-23) puts a·b there:
		// eb = max(ec, 1) + 103 − ea, within [2, 254] for the range of ea.
		denormal := kind%4 == 1
		var ea [4]int
		var u [4]uint32
		for i := range a {
			ea[i], u[i] = 60+r.Intn(135), uint32(1+r.Intn(1<<11))
			if denormal {
				ea[i] = 60 + r.Intn(43)
			}
			a[i] = bits32(sign() | uint32(ea[i])<<23 | u[i])
		}
		for l := range b {
			i := l % 4
			if denormal && l%2 == 1 {
				b[l], c[l] = tiny(), bits32(sign()|word()&(1<<(8+r.Intn(23))-1))
				continue
			}
			ec := 0
			c[l] = bits32(sign() | word()&(1<<(1+r.Intn(23))-1))
			if !denormal {
				lo, hi := max(1, ea[i]-101), min(254, ea[i]+151)
				ec = lo + r.Intn(hi-lo+1)
				c[l] = bits32(sign() | uint32(ec)<<23 | word()&0x7fffff)
			}
			eb := max(ec, 1) + 103 - ea[i]
			b[l] = bits32(uint32(eb-1)<<23 | (1<<23 - 2*u[i]))
		}
	default:
		for l := range b {
			zero := bits32(sign())
			switch r.Intn(3) {
			case 0:
				a[l%4], b[l], c[l] = zero, bits32(word()), bits32(word())
			case 1:
				a[l%4], b[l], c[l] = bits32(word()), zero, zero
			default:
				a[l%4], b[l], c[l] = -0x1p-100, 0x1p-100, zero
			}
		}
	}
}

// TestFMA32MatchesHostFMA is the differential test of fma32 against the
// host's VFMADD231PS: 2^24 triples, a quarter of each kind fmaDraw makes,
// each through mulPanel4x16 and through fma32 twice, the way the kernel
// issues it (c·1 from +0, then a·b onto that). It also counts the triples
// the float64 sum double-rounds, so that the draw cannot lose its hard cases
// unnoticed.
func TestFMA32MatchesHostFMA(t *testing.T) {
	if !HaveAVX2() {
		t.Skip("no FMA micro-kernel on this host")
	}
	r := tensor.NewRNG(2026)
	var a [4]float32
	var b, c [PanelWidth]float32
	var out [4][PanelWidth]float32
	doubleRounded := 0
	for call := 0; call < 1<<24/(4*PanelWidth); call++ {
		fmaDraw(r, call, &a, &b, &c)
		fmaHost(&out, &a, &b, &c)
		for i, row := range out {
			for l, got := range row {
				acc := fma32(c[l], 1, 0)
				want := fma32(a[i], b[l], acc)
				if !sameBits(got, want) {
					t.Fatalf("a=%#08x b=%#08x c=%#08x: VFMADD231PS %#08x, fma32 %#08x", math.Float32bits(a[i]),
						math.Float32bits(b[l]), math.Float32bits(c[l]), math.Float32bits(got), math.Float32bits(want))
				}
				if !sameBits(float32(float64(a[i])*float64(b[l])+float64(acc)), want) {
					doubleRounded++
				}
			}
		}
	}
	if doubleRounded == 0 {
		t.Fatal("no triple of the draw double-rounds in float64")
	}
	t.Logf("%d of 2^24 triples double-round in float64", doubleRounded)
}

// FuzzFMA32 holds fma32 to the exact oracle on any three float32 bit
// patterns, and to the host instruction where there is one. The committed
// corpus holds the hard cases.
func FuzzFMA32(f *testing.F) {
	for _, c := range fmaHardCases {
		f.Add(math.Float32bits(c.a), math.Float32bits(c.b), math.Float32bits(c.c))
	}
	f.Fuzz(func(t *testing.T, ab, bb, cb uint32) {
		a, b, c := bits32(ab), bits32(bb), bits32(cb)
		got := fma32(a, b, c)
		if want := fmaExact(a, b, c); !sameBits(got, want) {
			t.Fatalf("fma32(%#08x, %#08x, %#08x) = %#08x, exact %#08x", ab, bb, cb, math.Float32bits(got), math.Float32bits(want))
		}
		if HaveAVX2() && cb != 0x80000000 {
			var out [4][PanelWidth]float32
			fmaHost(&out, &[4]float32{a}, &[PanelWidth]float32{b}, &[PanelWidth]float32{c})
			if !sameBits(out[0][0], got) {
				t.Fatalf("fma32(%#08x, %#08x, %#08x) = %#08x, VFMADD231PS %#08x", ab, bb, cb, math.Float32bits(got), math.Float32bits(out[0][0]))
			}
		}
	})
}
