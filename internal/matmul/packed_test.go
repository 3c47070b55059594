package matmul

import (
	"encoding/binary"
	"math"
	"testing"

	"mnn/internal/tensor"
)

// sameBits reports whether x and y are the same float32 bit for bit. Two
// NaNs count as equal whatever their payloads: which operand's payload
// survives a NaN·NaN product is a register-allocation accident, not a
// property either kernel promises.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func firstBitDiff(got, want []float32) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// activations builds an m×k left operand shaped like what the GEMM consumers
// feed it: roughly half the entries are zero in spatially correlated runs
// (post-ReLU), with -0, denormals and a few large values mixed in.
func activations(seed uint64, m, k int) []float32 {
	r := tensor.NewRNG(seed)
	a := make([]float32, m*k)
	for i := range a {
		a[i] = r.Float32()
	}
	for i := 0; i < len(a); {
		run := 1 + r.Intn(9)
		if r.Intn(2) == 0 {
			for j := i; j < i+run && j < len(a); j++ {
				a[j] = 0
			}
		}
		i += run
	}
	specials := []float32{
		float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest denormal
		1e-39, 3e38, -3e38,
	}
	for _, s := range specials {
		a[r.Intn(len(a))] = s
	}
	return a
}

// weights builds a finite k×n right operand with some zeros and denormals.
func weights(seed uint64, k, n int) []float32 {
	r := tensor.NewRNG(seed)
	b := make([]float32, k*n)
	for i := range b {
		switch v := r.Intn(100); {
		case v < 5:
			b[i] = 0
		case v < 7:
			b[i] = float32(math.Copysign(0, -1))
		case v < 10:
			b[i] = 1e-41 * r.Float32()
		default:
			b[i] = r.Float32()
		}
	}
	return b
}

// hostLevels returns the micro-kernel levels this host has, "portable"
// first, and reports each one it lacks as a skipped subtest of that name: a
// level the suite could not reach shows in the log instead of passing
// silently (CI fails on such a skip where /proc/cpuinfo lists the feature).
func hostLevels(t *testing.T) []string {
	for _, isa := range levelNames[len(ISAs()):levelVNNI] {
		t.Run(isa, func(t *testing.T) { t.Skipf("this host has no %s micro-kernel", isa) })
	}
	return ISAs()
}

// TestPackedSIMDMatchesPortableBitwise is the differential test of the
// assembly micro-kernels: over edge and seeded random shapes every level
// must produce the portable loop's bits (and therefore Mul's), with no
// tolerance. The row counts cross every split of the drivers: twelve-row
// tiles, four-row blocks, the overlapping tail block, fewer than four rows;
// the column counts every split of the panels: one, a pair of full panels
// (32, 64), a pair beside a partial panel (33, 40, 47) and a pair beside a
// lone full one (48).
// Two cases pin that no step is skipped for a zero activation: an infinite
// weight against a column of zeros is NaN (0·Inf), and a −0 left in an
// accumulator by a product below half the smallest denormal turns +0 at the
// next step, +0·1.
func TestPackedSIMDMatchesPortableBitwise(t *testing.T) {
	levels := hostLevels(t)
	check := func(a, b []float32, m, k, n int) {
		t.Helper()
		pb := PackB(b, k, n)
		want := make([]float32, m*n)
		pb.Portable().MulInto(want, a, m)
		direct := make([]float32, m*n)
		Mul(direct, a, b, m, k, n)
		if d := firstBitDiff(want, direct); d >= 0 {
			t.Fatalf("%dx%dx%d: portable %v != Mul %v at %d", m, k, n, want[d], direct[d], d)
		}
		for _, isa := range levels[1:] {
			const guard = 8
			got := make([]float32, m*n+guard)
			for j := range got {
				got[j] = float32(math.NaN()) // every element must be written, nothing past the last
			}
			pb.WithISA(isa).MulInto(got[:m*n], a, m)
			if d := firstBitDiff(got, want); d >= 0 {
				t.Fatalf("%dx%dx%d: %s %v (%#08x) != portable %v (%#08x) at row %d col %d", m, k, n, isa,
					got[d], math.Float32bits(got[d]), want[d], math.Float32bits(want[d]), d/n, d%n)
			}
			for _, v := range got[m*n:] {
				if v == v {
					t.Fatalf("%dx%dx%d: %s wrote past dst", m, k, n, isa)
				}
			}
		}
	}
	type shape struct{ m, k, n int }
	var shapes []shape
	for m := 1; m <= 27; m++ {
		shapes = append(shapes, shape{m, 5 + m, 40})
	}
	for _, m := range []int{1, 3, 4, 5, 49} {
		for _, k := range []int{1, 3, 15, 16, 17} {
			for _, n := range []int{1, 15, 16, 17, 32, 33, 40, 47, 48, 64} {
				shapes = append(shapes, shape{m, k, n})
			}
		}
	}
	// mobilenet-v1's smallest and an FC-like shape, then random ones.
	shapes = append(shapes, shape{49, 512, 1024}, shape{1, 1024, 1000}, shape{196, 256, 512})
	r := tensor.NewRNG(2024)
	for i := 0; i < 60; i++ {
		shapes = append(shapes, shape{1 + r.Intn(70), 1 + r.Intn(150), 1 + r.Intn(130)})
	}
	for i, s := range shapes {
		check(activations(uint64(100+i), s.m, s.k), weights(uint64(500+i), s.k, s.n), s.m, s.k, s.n)
	}

	for _, m := range []int{1, 4, 13} {
		got := make([]float32, m*17)
		// Row i: 1, 0, 2 against weights (1, Inf, 3) in column 0: NaN.
		a, b := make([]float32, m*3), weights(7, 3, 17)
		for i := 0; i < m; i++ {
			a[i*3], a[i*3+2] = 1, 2
		}
		b[17] = inf32
		check(a, b, m, 3, 17)
		if PackB(b, 3, 17).MulInto(got, a, m); got[0] == got[0] {
			t.Fatalf("%d rows: 0·Inf summed to %v, want NaN", m, got[0])
		}

		// Row i: −2^-100, 0 against weights (2^-100, 1): fma(−2^-100, 2^-100,
		// +0) = −0, then fma(0, 1, −0) = +0.
		for i := 0; i < m; i++ {
			a[i*3], a[i*3+2] = -0x1p-100, 0
		}
		b = make([]float32, 3*17)
		b[0], b[17] = 0x1p-100, 1
		check(a, b, m, 3, 17)
		if PackB(b, 3, 17).MulInto(got, a, m); math.Float32bits(got[0]) != 0 {
			t.Fatalf("%d rows: a −0 accumulator plus 0·1 is %#08x, want +0", m, math.Float32bits(got[0]))
		}
	}
}

// TestPackedMulRowIndependence pins what the prepared kernels rely on when
// they split rows over lanes or stack a batch: row r of an m-row product is
// bit for bit the 1-row product of that row, wherever the row falls in a
// twelve-row tile of one panel or of a pair, a four-row block or the tail.
func TestPackedMulRowIndependence(t *testing.T) {
	type shape struct{ m, k, n int }
	shapes := []shape{{49, 64, 40}, {7, 16, 16}, {13, 33, 130}, {5, 8, 20}, {25, 21, 48}}
	for m := 1; m <= 27; m++ { // every 12/4/overlap/single split of the rows
		shapes = append(shapes, shape{m, 19, 32})
	}
	levels := hostLevels(t)
	for _, s := range shapes {
		a := activations(uint64(s.m), s.m, s.k)
		packed := PackB(weights(uint64(s.n), s.k, s.n), s.k, s.n)
		for _, isa := range levels {
			pb := packed.WithISA(isa)
			full := make([]float32, s.m*s.n)
			pb.MulInto(full, a, s.m)
			row := make([]float32, s.n)
			for r := 0; r < s.m; r++ {
				pb.MulInto(row, a[r*s.k:(r+1)*s.k], 1)
				if d := firstBitDiff(full[r*s.n:(r+1)*s.n], row); d >= 0 {
					t.Fatalf("%dx%dx%d %s: row %d col %d: %v in the full product, %v alone", s.m, s.k, s.n, isa, r, d, full[r*s.n+d], row[d])
				}
			}
			// Any split of the rows into chunks (as sched lanes do) gives the same bits.
			for _, chunk := range []int{2, 3, 25} {
				split := make([]float32, s.m*s.n)
				for r0 := 0; r0 < s.m; r0 += chunk {
					rows := min(chunk, s.m-r0)
					pb.MulInto(split[r0*s.n:], a[r0*s.k:], rows)
				}
				if d := firstBitDiff(split, full); d >= 0 {
					t.Fatalf("%dx%dx%d %s in chunks of %d differs from one call at %d", s.m, s.k, s.n, isa, chunk, d)
				}
			}
		}
	}
}

// FuzzPackedMulInto drives shapes and raw float32 bit patterns (any value, in
// a and in b) through every micro-kernel level of the host, the portable loop
// and Mul, which must all agree bitwise.
func FuzzPackedMulInto(f *testing.F) {
	f.Add(uint8(5), uint8(17), uint8(20), uint64(1), []byte{0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add(uint8(1), uint8(16), uint8(16), uint64(2), []byte{})
	f.Add(uint8(49), uint8(64), uint8(33), uint64(3), []byte{0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, mR, kR, nR uint8, seed uint64, raw []byte) {
		m, k, n := int(mR)%64+1, int(kR)%80+1, int(nR)%80+1
		a := activations(seed, m, k)
		b := weights(seed+1, k, n)
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			a[(i*13)%len(a)] = v
			b[(i*29)%len(b)] = v
		}
		pb := PackB(b, k, n)
		want := make([]float32, m*n)
		Mul(want, a, b, m, k, n)
		for _, isa := range ISAs() {
			got := make([]float32, m*n)
			pb.WithISA(isa).MulInto(got, a, m)
			if d := firstBitDiff(got, want); d >= 0 {
				t.Fatalf("%dx%dx%d: %s %v != Mul %v at %d", m, k, n, isa, got[d], want[d], d)
			}
		}
	})
}

// nc4Case is one MulNC4Into problem: `pixels` output pixels whose sources
// are `stride` pixels apart in an NC4HW4 activation of k channels, n output
// channels.
type nc4Case struct{ pixels, k, n, stride int }

// runNC4 lays the row-major a (pixels×k) out as NC4HW4 with NaN in every
// byte the kernel must not read (pad lanes, the pixels a stride skips), runs
// MulNC4Into into a NaN-filled NC4HW4 dst and returns the logical pixels×n
// result, checking that nothing outside dst's packs was written.
func runNC4(t testing.TB, pb *PackedB, a []float32, c nc4Case, bias []float32, lo, hi float32) []float32 {
	t.Helper()
	nan := float32(math.NaN())
	k4, n4 := (c.k+3)/4, (c.n+3)/4
	srcPix := (c.pixels-1)*c.stride + 1
	aPack, dstPack := srcPix*4, c.pixels*4
	src := make([]float32, k4*aPack)
	for i := range src {
		src[i] = nan
	}
	for q := 0; q < c.pixels; q++ {
		for p := 0; p < c.k; p++ {
			src[(p/4)*aPack+q*c.stride*4+p%4] = a[q*c.k+p]
		}
	}
	const guard = 8
	dst := make([]float32, n4*dstPack+guard)
	for i := range dst {
		dst[i] = nan
	}
	pb.MulNC4Into(dst[:n4*dstPack], dstPack, src, aPack, c.stride*4, c.pixels, bias, lo, hi)
	for i := n4 * dstPack; i < len(dst); i++ {
		if dst[i] == dst[i] {
			t.Fatalf("%+v: wrote past dst at +%d", c, i-n4*dstPack)
		}
	}
	out := make([]float32, c.pixels*c.n)
	for q := 0; q < c.pixels; q++ {
		for o := 0; o < c.n; o++ {
			out[q*c.n+o] = dst[(o/4)*dstPack+q*4+o%4]
		}
	}
	return out
}

func clamp(v, lo, hi float32) float32 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

var (
	inf32       = float32(math.Inf(1))
	clampBounds = [][2]float32{{-inf32, inf32}, {0, inf32}, {0, 6}} // none, relu, relu6
)

// TestPackedNC4MatchesMulIntoBitwise pins the NC4HW4 entry to the row-major
// one: MulNC4Into (every assembly level the host has, and the portable twin)
// ≡ MulInto, then + bias, then clamp — bit for bit, for every k (including
// k < PanelWidth), tail pixels, partial last packs and panels, panel pairs
// (32), a pair whose second panel holds one pack (33) and a pair beside a
// lone panel (48), stride-2 sources and NaN-poisoned pad lanes.
func TestPackedNC4MatchesMulIntoBitwise(t *testing.T) {
	levels := hostLevels(t)
	var cases []nc4Case
	for pixels := 1; pixels <= 27; pixels++ { // every 12/4/overlap/single split of a run
		cases = append(cases, nc4Case{pixels, 9 + pixels, 40, 1 + pixels%2})
	}
	for _, pixels := range []int{1, 3, 4, 5, 49} {
		for _, k := range []int{1, 3, 4, 7, 16, 17, 130} {
			for _, n := range []int{1, 6, 9, 16, 17, 32, 33, 48, 72, 140} {
				cases = append(cases, nc4Case{pixels, k, n, 1 + (pixels+k+n)%2})
			}
		}
	}
	r := tensor.NewRNG(77)
	for i := 0; i < 40; i++ {
		cases = append(cases, nc4Case{1 + r.Intn(70), 1 + r.Intn(150), 1 + r.Intn(130), 1 + r.Intn(3)})
	}
	for i, c := range cases {
		a := activations(uint64(900+i), c.pixels, c.k)
		b := weights(uint64(1300+i), c.k, c.n)
		pb := PackB(b, c.k, c.n)
		bias := make([]float32, (c.n+PanelWidth-1)/PanelWidth*PanelWidth)
		for o := 0; o < c.n; o++ {
			bias[o] = r.Float32()
		}
		bias[r.Intn(c.n)] = 0
		sum := make([]float32, c.pixels*c.n)
		pb.Portable().MulInto(sum, a, c.pixels)
		bounds := clampBounds[i%3]
		want := make([]float32, len(sum))
		for j, v := range sum {
			want[j] = clamp(v+bias[j%c.n], bounds[0], bounds[1])
		}
		for _, isa := range levels {
			got := runNC4(t, pb.WithISA(isa), a, c, bias, bounds[0], bounds[1])
			if d := firstBitDiff(got, want); d >= 0 {
				t.Fatalf("%+v %s clamp %v: NC4 %v (%#08x) != MulInto+bias+clamp %v (%#08x) at pixel %d channel %d", c, isa, bounds,
					got[d], math.Float32bits(got[d]), want[d], math.Float32bits(want[d]), d/c.n, d%c.n)
			}
		}
	}
}

// TestPackedNC4ClampSpecials pins the VMAXPS/VMINPS operand order of the
// fused epilogue: NaN must come out NaN, as the scalar `if v < lo` / `if v >
// hi` leave it, and ±Inf and the bounds themselves clamp as written. (-0
// reaches this clamp only as a sum that underflowed to -0 plus a -0 bias;
// the depthwise kernel, whose sum starts at the bias, pins relu(-0) = -0 in
// internal/kernels.)
func TestPackedNC4ClampSpecials(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0, -1, 6, 7, inf32, -inf32,
		-math.SmallestNonzeroFloat32, 5.9999995, 6.0000005}
	// One input channel with weight 1 and zero bias: the sum is the
	// activation itself.
	const n = 16
	b := make([]float32, n)
	for i := range b {
		b[i] = 1
	}
	pb := PackB(b, 1, n)
	bias := make([]float32, n)
	levels := hostLevels(t)
	for _, bounds := range clampBounds {
		for _, s := range specials {
			want := clamp(0+float32(s*1)+0, bounds[0], bounds[1])
			var pixels [17]float32 // a twelve-pixel tile, a four-pixel block and the overlapping one
			for i := range pixels {
				pixels[i] = s
			}
			for _, isa := range levels {
				got := runNC4(t, pb.WithISA(isa), pixels[:], nc4Case{len(pixels), 1, n, 1}, bias, bounds[0], bounds[1])
				for i, g := range got {
					if !sameBits(g, want) {
						t.Fatalf("clamp %v of %v (%s) at %d: got %v (%#08x), want %v (%#08x)", bounds, s, isa, i,
							g, math.Float32bits(g), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestPackWeightMatchesStagedTranspose is the parity test of the packs that
// read a weight in its own [n][c][taps] layout: each must make, byte for byte
// — panels, zero padding, K and N — what PackB and PackBInt8 make of the
// (tap, channel)-major transpose the kernels used to stage, over the output,
// input and tap counts of the engine's layers, with NaN payloads, ±Inf, -0
// and denormals among the fp32 weights, and in int8 both without padding (the
// FC's rows) and with every tap padded to whole channel packs (QuantConv's).
func TestPackWeightMatchesStagedTranspose(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 100} {
		for _, c := range []int{1, 3, 4, 5, 64} {
			for _, taps := range []int{1, 9, 49} {
				w := weights(uint64(n*1000+c*10+taps), n, c*taps)
				for i, v := range []float32{math.Float32frombits(0x7fc01234), math.Float32frombits(0xffa00001), float32(math.Inf(1)), float32(math.Inf(-1))} {
					w[(i*7919)%len(w)] = v
				}
				staged := make([]float32, len(w))
				for o := 0; o < n; o++ {
					for i := 0; i < c; i++ {
						for tp := 0; tp < taps; tp++ {
							staged[(tp*c+i)*n+o] = w[(o*c+i)*taps+tp]
						}
					}
				}
				got, want := PackWeight(w, n, c, taps), PackB(staged, taps*c, n)
				if got.K != want.K || got.N != want.N || len(got.data) != len(want.data) {
					t.Fatalf("n=%d c=%d taps=%d: %d×%d (%d floats), want %d×%d (%d)", n, c, taps, got.K, got.N, len(got.data), want.K, want.N, len(want.data))
				}
				for i := range want.data {
					if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
						t.Fatalf("n=%d c=%d taps=%d: float %d is %#x, want %#x", n, c, taps, i, math.Float32bits(got.data[i]), math.Float32bits(want.data[i]))
					}
				}

				q := randInt8(uint32(n*c*taps), n*c*taps, true)
				for _, cp := range []int{c, (c + 3) / 4 * 4} {
					staged8 := make([]int8, taps*cp*n)
					for o := 0; o < n; o++ {
						for i := 0; i < c; i++ {
							for tp := 0; tp < taps; tp++ {
								staged8[(tp*cp+i)*n+o] = q[(o*c+i)*taps+tp]
							}
						}
					}
					got8, want8 := PackWeightInt8(q, n, c, taps, cp), PackBInt8(staged8, taps*cp, n)
					if got8.K != want8.K || got8.N != want8.N || got8.kq != want8.kq || len(got8.w16) != len(want8.w16) || len(got8.w8) != len(want8.w8) {
						t.Fatalf("int8 n=%d c=%d taps=%d cp=%d: shape differs", n, c, taps, cp)
					}
					for i := range want8.w16 {
						if got8.w16[i] != want8.w16[i] {
							t.Fatalf("int8 n=%d c=%d taps=%d cp=%d: word %d is %d, want %d", n, c, taps, cp, i, got8.w16[i], want8.w16[i])
						}
					}
					for i := range want8.w8 {
						if got8.w8[i] != want8.w8[i] {
							t.Fatalf("int8 n=%d c=%d taps=%d cp=%d: byte %d is %d, want %d", n, c, taps, cp, i, got8.w8[i], want8.w8[i])
						}
					}
				}
			}
		}
	}
}
