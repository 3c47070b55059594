package matmul

import (
	"runtime"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/models"
)

// packBInt8SegmentsRef and packWeightInt8Ref are the int8 packers as they
// were before they filled a column at a time: every weight placed through
// row, index and quadIndex. They are the oracles of packBInt8Segments and
// packWeightInt8 at every level.
func packBInt8SegmentsRef(b []int8, k, n, seg int, lv level) *PackedBInt8 {
	pb := newPackedBInt8(k, n, seg, lv)
	for p := 0; p < k; p++ {
		for j, v := range b[p*n : (p+1)*n] {
			pb.set(pb.index(p, j), v)
		}
	}
	return pb
}

// set stores v at index i of either layout.
func (pb *PackedBInt8) set(i int, v int8) {
	if pb.w8 != nil {
		pb.w8[i] = v
	} else {
		pb.w16[i] = int16(v)
	}
}

func packWeightInt8Ref(w []int8, n, c, kh, kw, cp int, lv level) *PackedBInt8 {
	taps := kh * kw
	pb := newPackedBInt8(taps*cp, n, kw*cp, lv)
	vnni := pb.w8 != nil
	for j0 := 0; j0 < n; j0 += PanelWidthInt8 {
		for p := 0; p < pb.K; p++ {
			t, i := p/cp, p%cp
			if i >= c {
				continue
			}
			r := pb.row(p)
			quad := (j0/PanelWidthInt8*pb.kq + r/4) * quadLen
			for l := range min(PanelWidthInt8, n-j0) {
				pb.set(quad+quadIndex(vnni, r%4, l), w[((j0+l)*c+i)*taps+t])
			}
		}
	}
	return pb
}

// weightShape is a packed weight's [n][c][kh][kw].
type weightShape struct{ n, c, kh, kw int }

// zooWeightShapes lists the distinct shapes the zoo's weights are packed
// in: every group-1 convolution's, every grouped non-depthwise one's per
// group (as im2col packs it, one tap over c·kh·kw), and every
// InnerProduct's as a 1×1. -short keeps mobilenet-v1 and squeezenet-v1.1.
// Shapes of more than 1<<24 weights — vgg-16's fc6 alone — are left out,
// which holds the test to a few hundred MiB; vgg-16's fc7, 4096×4096, takes
// the same code path.
func zooWeightShapes(t *testing.T) []weightShape {
	seen := map[weightShape]bool{}
	var shapes []weightShape
	for _, name := range models.Names() {
		if testing.Short() && name != "mobilenet-v1" && name != "squeezenet-v1.1" {
			continue
		}
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range g.Nodes {
			var s weightShape
			switch a := nd.Attrs.(type) {
			case *graph.Conv2DAttrs:
				if nd.Op != graph.OpConv2D {
					continue
				}
				d := g.Weights[nd.WeightNames[0]].Shape()
				s = weightShape{d[0], d[1], d[2], d[3]}
				if group := max(a.Group, 1); group > 1 {
					if d[1] == 1 { // depthwise: not packed
						continue
					}
					s = weightShape{d[0] / group, d[1] * d[2] * d[3], 1, 1}
				}
			case *graph.InnerProductAttrs:
				d := g.Weights[nd.WeightNames[0]].Shape()
				s = weightShape{d[0], d[1], 1, 1}
			default:
				continue
			}
			if !seen[s] && s.n*s.c*s.kh*s.kw <= 1<<24 {
				seen[s] = true
				shapes = append(shapes, s)
			}
		}
		runtime.GC() // g's weights are dead
	}
	return shapes
}

// TestPackersMatchScalarOracles holds the packers to the loops they
// replaced, byte for byte — panels, zero padding, K, N, quads and segments
// — for every zoo weight shape and a set of edge shapes (one column,
// partial panels, channel counts off whole packs, 1×7 and 7×1 kernels):
// PackWeightInt8 and PackBInt8Segments at every int8 level this host runs,
// amx's padded segments included, with every tap padded to whole channel
// packs (QuantConv's layout) and, for one tap, unpadded
// (QuantInnerProduct's).
func TestPackersMatchScalarOracles(t *testing.T) {
	shapes := zooWeightShapes(t)
	if len(shapes) < 10 {
		t.Fatalf("only %d zoo weight shapes", len(shapes))
	}
	for _, n := range []int{1, 15, 17, 33} {
		for _, c := range []int{1, 3, 5, 8} {
			for _, k := range [][2]int{{1, 1}, {3, 3}, {1, 7}, {7, 1}} {
				shapes = append(shapes, weightShape{n, c, k[0], k[1]})
			}
		}
	}
	for _, s := range shapes {
		taps := s.kh * s.kw
		q := randInt8(uint32(s.n*s.c*taps), s.n*s.c*taps, true)
		cps := []int{(s.c + 3) / 4 * 4}
		if taps == 1 && s.c%4 != 0 {
			cps = append(cps, s.c)
		}
		for _, lv := range int8Ladder {
			if lv > haveInt8 {
				continue
			}
			for _, cp := range cps {
				got, want := packWeightInt8(q, s.n, s.c, s.kh, s.kw, cp, lv), packWeightInt8Ref(q, s.n, s.c, s.kh, s.kw, cp, lv)
				samePackedInt8(t, got, want, "PackWeightInt8", s, levelNames[lv], cp)
				// The same matrix, staged row-major, through PackBInt8Segments.
				staged := make([]int8, taps*cp*s.n)
				for o := range s.n {
					for i := range s.c {
						for tp := range taps {
							staged[(tp*cp+i)*s.n+o] = q[(o*s.c+i)*taps+tp]
						}
					}
				}
				got = packBInt8Segments(staged, taps*cp, s.n, s.kw*cp, lv)
				samePackedInt8(t, got, want, "PackBInt8Segments", s, levelNames[lv], cp)
				samePackedInt8(t, got, packBInt8SegmentsRef(staged, taps*cp, s.n, s.kw*cp, lv), "PackBInt8Segments vs its loop", s, levelNames[lv], cp)
			}
		}
	}
}

// samePackedInt8 fails t unless got and want are the same pack.
func samePackedInt8(t *testing.T, got, want *PackedBInt8, what string, s weightShape, isa string, cp int) {
	t.Helper()
	if got.K != want.K || got.N != want.N || got.kq != want.kq || got.seg != want.seg || got.segRows != want.segRows || got.simd != want.simd ||
		len(got.w8) != len(want.w8) || len(got.w16) != len(want.w16) {
		t.Fatalf("%s %v at %s, cp=%d: the pack's shape differs", what, s, isa, cp)
	}
	for i := range want.w8 {
		if got.w8[i] != want.w8[i] {
			t.Fatalf("%s %v at %s, cp=%d: byte %d is %d, want %d", what, s, isa, cp, i, got.w8[i], want.w8[i])
		}
	}
	for i := range want.w16 {
		if got.w16[i] != want.w16[i] {
			t.Fatalf("%s %v at %s, cp=%d: word %d is %d, want %d", what, s, isa, cp, i, got.w16[i], want.w16[i])
		}
	}
}
