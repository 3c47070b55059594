// Package core implements the paper's primary contribution: the
// pre-inference mechanism of Section 3.2. Given a graph whose input sizes
// are fixed, it selects
//
//   - the computation scheme of every convolution (sliding window vs.
//     Winograd with cost-optimal tile size vs. the 1×1 matrix multiply,
//     priced as Strassen's) via the cost model of Equations 2–3, and
//   - the backend of every operator via the cost model of Equations 4–5,
//
// all before the first real inference runs, so that execution is pure
// compute (Figure 3).
package core

import (
	"fmt"

	"mnn/internal/graph"
	"mnn/internal/matmul"
)

// ConvScheme identifies the algorithm chosen for a convolution.
type ConvScheme uint8

const (
	// SchemeSliding is the direct sliding-window kernel.
	SchemeSliding ConvScheme = iota
	// SchemeWinograd is F(n̂×n̂, k×k) Winograd (per-axis for asymmetric k).
	SchemeWinograd
	// SchemeStrassen1x1 is a 1×1 convolution as one matrix multiply. Its
	// EffMULs is Strassen's multiply count under the paper's Equation 9
	// cutoff (matmul.StrassenMULs), which the simulated clock charges; the
	// host runs SlidingConv's one-tap whole-sample run.
	SchemeStrassen1x1
	// SchemeDepthwise is the dedicated depthwise kernel.
	SchemeDepthwise
	// SchemeIm2col is the generic im2col+GEMM fallback (grouped convs etc.).
	SchemeIm2col
)

func (s ConvScheme) String() string {
	switch s {
	case SchemeSliding:
		return "sliding"
	case SchemeWinograd:
		return "winograd"
	case SchemeStrassen1x1:
		return "strassen-1x1"
	case SchemeDepthwise:
		return "depthwise"
	case SchemeIm2col:
		return "im2col"
	default:
		return fmt.Sprintf("ConvScheme(%d)", uint8(s))
	}
}

// ConvDecision is the outcome of scheme selection for one convolution.
type ConvDecision struct {
	Scheme ConvScheme
	// TileH/TileW are the Winograd output tile sizes n̂ per axis (Eq. 2);
	// meaningful only when Scheme == SchemeWinograd.
	TileH, TileW int
	// EffMULs is the effective multiplication count of the chosen scheme
	// (the MUL term of Eq. 5 after algorithmic savings), used by the
	// simulated clock.
	EffMULs int64
	// DirectMULs is the naive multiplication count, kept for reporting.
	DirectMULs int64
	// CostPerPixel is the model's predicted per-output-pixel cost in
	// multiply-equivalents, for diagnostics.
	CostPerPixel float64
}

// winoTileCandidates are the output tile sizes considered for n̂ (Eq. 2).
// MNN's implementation bounds the transform size; beyond n=6 the float32
// transforms lose too much precision to be useful.
var winoTileCandidates = []int{2, 4, 6}

// ---- Legality predicates.
//
// These are the single source of truth for which algorithm may run a given
// convolution. SelectConvScheme (the heuristic), the tuner's candidate
// enumeration and the conformance suite all consult the same predicates, so
// a candidate the tuner proposes is always one the prepared kernels accept.

// DepthwiseLegal reports whether the dedicated depthwise kernel applies.
func DepthwiseLegal(a *graph.Conv2DAttrs) bool { return a.IsDepthwise() }

// SlidingLegal reports whether the sliding-window kernel applies: it packs
// the full [oc, ic] filter block, so grouped convolutions are out.
func SlidingLegal(a *graph.Conv2DAttrs) bool { return a.Group <= 1 }

// Im2colLegal reports whether the im2col+GEMM path applies. It is the
// universal fallback: any group count whose channels divide evenly.
func Im2colLegal(a *graph.Conv2DAttrs, ic int) bool {
	g := a.Group
	if g <= 0 {
		g = 1
	}
	return a.OutputCount%g == 0 && (ic == 0 || ic%g == 0)
}

// Strassen1x1Legal reports whether the 1×1 matrix-multiply lowering
// applies: 1×1 kernel, group 1, and zero effective padding, so that every
// output pixel is one (strided) input pixel times the weight. The host runs
// it as SlidingConv's one-tap case: one run per sample at stride 1, one per
// output row otherwise.
func Strassen1x1Legal(a *graph.Conv2DAttrs, inShape []int) bool {
	if a.KernelH != 1 || a.KernelW != 1 || a.Group > 1 {
		return false
	}
	if len(inShape) != 4 {
		return false
	}
	ph, pw := graph.ConvPadding(inShape[2], inShape[3], a)
	return ph == 0 && pw == 0
}

// WinogradLegal reports whether F(n̂×n̂, k×k) Winograd applies at the given
// tile size: stride 1, dilation 1, group 1, a kernel that actually covers
// more than one tap, transforms within the usable float32 bound, and a
// kernel no larger than the input.
func WinogradLegal(a *graph.Conv2DAttrs, inShape []int, tile int) bool {
	if strideOr1(a.StrideH) != 1 || strideOr1(a.StrideW) != 1 ||
		dilOr1(a.DilationH) != 1 || dilOr1(a.DilationW) != 1 || a.Group > 1 {
		return false
	}
	if a.KernelH <= 1 && a.KernelW <= 1 {
		return false
	}
	if len(inShape) != 4 || a.KernelH > inShape[2] || a.KernelW > inShape[3] {
		return false
	}
	nh, nw := tile, tile
	if a.KernelH == 1 {
		nh = 1
	}
	if a.KernelW == 1 {
		nw = 1
	}
	return nh+a.KernelH-1 <= maxTransform && nw+a.KernelW-1 <= maxTransform
}

// TrafficCostFactor converts one float of kernel memory traffic into
// multiply-equivalents for the scheme cost model. Equation 2 counts
// arithmetic only; on real kernels the Winograd gather/scatter traffic is
// what makes small-channel convolutions favor sliding window (the paper's
// Table 1, first column). Calibrated once against this repo's kernels.
var TrafficCostFactor = 2.0

// SelectConvScheme implements Equations 2–3 extended with a traffic term, as
// a rule over ConvCandidates: the dedicated depthwise kernel or the 1×1
// matmul lowering where legal (Rule 1 of Section 3.2: k = 1 is a matrix
// multiplication), else the cheapest CostPerPixel among sliding window and
// the Winograd tiles (ties to the earlier candidate, so n̂ = 1 ⇒ sliding
// window, Equation 3's first branch), else im2col, the grouped
// convolutions' path. A convolution no kernel runs (output channels that its
// group does not divide) gets im2col without cost terms.
func SelectConvScheme(a *graph.Conv2DAttrs, inShape []int) ConvDecision {
	var best *ConvDecision
	im2col := ConvDecision{Scheme: SchemeIm2col}
	cands := ConvCandidates(a, inShape)
	for i := range cands {
		d := &cands[i].Decision
		switch d.Scheme {
		case SchemeDepthwise, SchemeStrassen1x1:
			return *d
		case SchemeSliding, SchemeWinograd:
			if best == nil || d.CostPerPixel < best.CostPerPixel {
				best = d
			}
		case SchemeIm2col:
			im2col = *d
		}
	}
	if best != nil {
		return *best
	}
	return im2col
}

// maxTransform is the n+k-1 bound for usable float32 Winograd transforms.
const maxTransform = 10

// winoCostPerPixel evaluates Equation 2 per tile, multiplies by the number
// of tiles actually launched for an oh×ow output (edge tiles compute wasted
// lanes — this is what makes large tiles lose on small feature maps, the
// paper's Table 1 second column), adds the memory-traffic term that
// Equation 2 omits, and normalizes per useful output pixel.
func winoCostPerPixel(nh, nw, kh, kw, ic, oc, oh, ow int) float64 {
	arith, traffic := winoPerTileCost(nh, nw, kh, kw, ic, oc)
	perTile := arith + TrafficCostFactor*traffic
	tiles := float64(upDiv(oh, nh)) * float64(upDiv(ow, nw))
	return perTile * tiles / float64(oh*ow)
}

// winoPerTileCost returns the Equation 2 arithmetic count and the memory
// traffic of one Winograd tile, generalized to rectangular transforms (an
// axis with kernel size 1 has mh or mw = nh or nw): input transform
// ic·(mh+mw)·mh·mw, Hadamard ic·oc·mh·mw, output transform per channel, and
// the Figure 4 data flow's reads/writes.
func winoPerTileCost(nh, nw, kh, kw, ic, oc int) (arith, traffic float64) {
	mh := nh + kh - 1
	mw := nw + kw - 1
	arith = float64(ic)*float64(mh+mw)*float64(mh*mw) +
		float64(ic*oc)*float64(mh*mw) +
		float64(nh*mw)*float64(nh+mh)
	traffic = float64(mh*mw*(2*ic)) + float64(nh*nw*oc) + float64(mh*mw*oc)
	return arith, traffic
}

// ParseConvScheme maps a scheme name (the String() form) back to its
// ConvScheme, for the tuning-cache decoder and CLI tooling.
func ParseConvScheme(s string) (ConvScheme, error) {
	switch s {
	case "sliding":
		return SchemeSliding, nil
	case "winograd":
		return SchemeWinograd, nil
	case "strassen-1x1":
		return SchemeStrassen1x1, nil
	case "depthwise":
		return SchemeDepthwise, nil
	case "im2col":
		return SchemeIm2col, nil
	default:
		return SchemeSliding, fmt.Errorf("core: unknown conv scheme %q", s)
	}
}

// Int8Route names the int8 tap GEMM in scheme counts and simulated charges.
const Int8Route = "int8-gemm"

// ConvRoute is the kernel pre-inference chose for one convolution: its fp32
// decision, and whether an int8 engine runs it on the int8 tap GEMM instead.
type ConvRoute struct {
	ConvDecision
	// Int8 routes the convolution to the int8 tap GEMM (kernels.QuantConv).
	Int8 bool
}

// String names the route: Int8Route, or the scheme's name.
func (r ConvRoute) String() string {
	if r.Int8 {
		return Int8Route
	}
	return r.Scheme.String()
}

// ConvRoutes holds one route per convolution node, by node name: the conv
// decisions an engine makes once per Open. Its backends prepare from it, its
// int8 partition and its scheme counts are read from it.
type ConvRoutes map[string]ConvRoute

// DecideConvs makes the conv decisions of a graph at its inferred shapes:
// each Conv2D node takes its tuned decision if it has one, else the
// SelectConvScheme heuristic's, and in an int8 engine runs on the int8 tap
// GEMM where Int8ConvSupported prices that below its decision on this host's
// int8 level.
func DecideConvs(g *graph.Graph, shapes graph.ShapeMap, tuned map[string]ConvDecision, int8 bool) ConvRoutes {
	level := ""
	if int8 {
		level = matmul.Int8ISA()
	}
	routes := ConvRoutes{}
	for _, n := range g.Nodes {
		if n.Op != graph.OpConv2D {
			continue
		}
		a, in := n.Attrs.(*graph.Conv2DAttrs), shapes[n.Inputs[0]]
		dec, ok := tuned[n.Name]
		if !ok {
			dec = SelectConvScheme(a, in)
		}
		routes[n.Name] = ConvRoute{dec, Int8ConvSupported(a, in, dec, level)}
	}
	return routes
}

// Counts tallies the routes by name.
func (rs ConvRoutes) Counts() map[string]int {
	counts := map[string]int{}
	for _, r := range rs {
		counts[r.String()]++
	}
	return counts
}

// ConvCandidate is one legal algorithm for a convolution together with the
// analytic cost terms of the first-principles model: Arith counts
// multiply-equivalents per inference (after algorithmic savings), Traffic
// counts float32 reads+writes of the kernel's data movement. The tuner
// scores candidates from these; measurement can then overrule the model.
type ConvCandidate struct {
	Decision ConvDecision
	Arith    float64
	Traffic  float64
	// GemmK is the reduction depth of the lowered GEMM for matmul-backed
	// schemes (im2col: ic/g·kh·kw, 1×1: ic), 0 for direct kernels. Achieved
	// GEMM throughput ramps with K (panel reuse amortizes over the
	// reduction), which the tuner's scoring models.
	GemmK int
}

// ConvCandidates enumerates every algorithm whose legality predicate admits
// the convolution, each with a fully-populated decision (tile sizes,
// EffMULs for the simulated clock) and its analytic cost terms. The list is
// never empty for a valid convolution: im2col is the universal fallback.
func ConvCandidates(a *graph.Conv2DAttrs, inShape []int) []ConvCandidate {
	ic := a.InputCount
	if ic == 0 && len(inShape) == 4 {
		ic = inShape[1]
	}
	oc := a.OutputCount
	var ih, iw int
	if len(inShape) == 4 {
		ih, iw = inShape[2], inShape[3]
	}
	oh, ow, err := graph.ConvOutputSize(ih, iw, a)
	if err != nil {
		oh, ow = 1, 1
	}
	n := 1
	if len(inShape) > 0 {
		n = inShape[0]
	}
	group := a.Group
	if group <= 0 {
		group = 1
	}
	outPixels := int64(n) * int64(oh) * int64(ow)
	direct := outPixels * int64(oc) * int64(ic/group) * int64(a.KernelH) * int64(a.KernelW)
	inElems := float64(n * ic * ih * iw)
	outElems := float64(outPixels) * float64(oc)
	weightElems := float64(oc * (ic / group) * a.KernelH * a.KernelW)

	var cands []ConvCandidate

	if DepthwiseLegal(a) {
		cands = append(cands, ConvCandidate{
			Decision: ConvDecision{Scheme: SchemeDepthwise, EffMULs: direct, DirectMULs: direct,
				CostPerPixel: float64(a.KernelH * a.KernelW)},
			Arith:   float64(direct),
			Traffic: inElems + outElems + weightElems,
		})
	}

	if !DepthwiseLegal(a) && SlidingLegal(a) && !Strassen1x1Legal(a, inShape) {
		// The sliding kernel re-reads the input window for every block of 4
		// output channels. Where the 1×1 lowering is legal the host runs the
		// same SlidingConv call under that label, so the kernel is listed once.
		cands = append(cands, ConvCandidate{
			Decision: ConvDecision{Scheme: SchemeSliding, EffMULs: direct, DirectMULs: direct,
				CostPerPixel: float64(ic) * float64(a.KernelH) * float64(a.KernelW) * float64(oc)},
			Arith:   float64(direct),
			Traffic: inElems*float64(upDiv(oc, 4)) + outElems + weightElems,
		})
	}

	if Strassen1x1Legal(a, inShape) {
		eff := matmul.StrassenMULs(int(outPixels), ic, oc)
		// Unpack [px, ic], GEMM, repack [px, oc].
		cands = append(cands, ConvCandidate{
			Decision: ConvDecision{Scheme: SchemeStrassen1x1, EffMULs: eff, DirectMULs: direct,
				CostPerPixel: float64(ic) * float64(oc)},
			Arith:   float64(eff),
			Traffic: inElems + 2*float64(outPixels)*float64(ic+oc) + outElems + weightElems,
			GemmK:   ic,
		})
	}

	if Im2colLegal(a, ic) && !DepthwiseLegal(a) {
		// Build + read the patch matrix, write + scatter the product, and
		// stage the NC4HW4 activations through NCHW temporaries.
		k := float64(ic/group) * float64(a.KernelH) * float64(a.KernelW)
		cols := 2 * k * float64(outPixels)
		cands = append(cands, ConvCandidate{
			Decision: ConvDecision{Scheme: SchemeIm2col, EffMULs: direct, DirectMULs: direct,
				CostPerPixel: k * float64(oc)},
			Arith:   float64(direct),
			Traffic: cols + 2*outElems + 2*(inElems+outElems) + weightElems,
			GemmK:   int(k),
		})
	}

	for _, t := range winoTileCandidates {
		if !WinogradLegal(a, inShape, t) {
			continue
		}
		nh, nw := t, t
		if a.KernelH == 1 {
			nh = 1
		}
		if a.KernelW == 1 {
			nw = 1
		}
		arith, traffic := winoPerTileCost(nh, nw, a.KernelH, a.KernelW, ic, oc)
		tiles := int64(n) * int64(upDiv(oh, nh)) * int64(upDiv(ow, nw))
		cands = append(cands, ConvCandidate{
			Decision: ConvDecision{Scheme: SchemeWinograd, TileH: nh, TileW: nw,
				EffMULs:      tiles * int64(arith+TrafficCostFactor*traffic),
				DirectMULs:   direct,
				CostPerPixel: winoCostPerPixel(nh, nw, a.KernelH, a.KernelW, ic, oc, oh, ow)},
			Arith:   float64(tiles) * arith,
			Traffic: float64(tiles) * traffic,
		})
	}
	return cands
}

func upDiv(a, b int) int { return (a + b - 1) / b }

func strideOr1(s int) int {
	if s <= 0 {
		return 1
	}
	return s
}

func dilOr1(d int) int {
	if d <= 0 {
		return 1
	}
	return d
}
