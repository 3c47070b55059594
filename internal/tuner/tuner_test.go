package tuner

import (
	"math/rand"
	"path/filepath"
	"testing"

	"mnn/internal/core"
	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/models"
	"mnn/internal/optimizer"
)

// randomConv draws a random convolution configuration from the space the
// built-in networks (and the serving tier's arbitrary models) inhabit.
func randomConv(r *rand.Rand) (*graph.Conv2DAttrs, []int) {
	ic := 1 + r.Intn(64)
	oc := 1 + r.Intn(64)
	k := []int{1, 1, 2, 3, 3, 5, 7}[r.Intn(7)]
	kw := k
	if r.Intn(8) == 0 { // asymmetric kernels (Inception)
		kw = []int{1, 3, 7}[r.Intn(3)]
	}
	a := &graph.Conv2DAttrs{
		KernelH: k, KernelW: kw,
		StrideH: 1 + r.Intn(3), StrideW: 1 + r.Intn(3),
		DilationH: 1 + r.Intn(2), DilationW: 1 + r.Intn(2),
		PadMode: graph.PadSame,
		Group:   1, InputCount: ic, OutputCount: oc,
		ReLU: r.Intn(2) == 0,
	}
	switch r.Intn(5) {
	case 0: // depthwise
		a.Group, a.InputCount, a.OutputCount = ic, ic, ic
	case 1: // grouped
		g := []int{2, 4}[r.Intn(2)]
		a.InputCount, a.OutputCount = ic*g, oc*g
		a.Group = g
	}
	if r.Intn(3) == 0 {
		a.PadMode = graph.PadExplicit
		a.PadH, a.PadW = r.Intn(3), r.Intn(3)
	}
	hw := 4 + r.Intn(60)
	return a, []int{1, a.InputCount, hw, hw}
}

// TestCandidateLegalityProperty: across randomized shapes, every candidate
// the cost model can propose satisfies its kernel's preconditions — the
// tuner can never hand the backend an algorithm the prepared kernels reject.
func TestCandidateLegalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		a, inShape := randomConv(r)
		cands := core.ConvCandidates(a, inShape)
		if len(cands) == 0 {
			t.Fatalf("trial %d: no legal candidate for %+v %v (im2col should be universal)", trial, a, inShape)
		}
		for _, c := range cands {
			dec := c.Decision
			switch dec.Scheme {
			case core.SchemeWinograd:
				if a.StrideH > 1 || a.StrideW > 1 {
					t.Fatalf("trial %d: Winograd proposed with stride %dx%d", trial, a.StrideH, a.StrideW)
				}
				if a.DilationH > 1 || a.DilationW > 1 {
					t.Fatalf("trial %d: Winograd proposed with dilation %dx%d", trial, a.DilationH, a.DilationW)
				}
				if a.Group > 1 {
					t.Fatalf("trial %d: Winograd proposed with group %d", trial, a.Group)
				}
				if dec.TileH+a.KernelH-1 > 10 || dec.TileW+a.KernelW-1 > 10 {
					t.Fatalf("trial %d: Winograd transform %dx%d exceeds the float32 bound",
						trial, dec.TileH+a.KernelH-1, dec.TileW+a.KernelW-1)
				}
				if a.KernelH > inShape[2] || a.KernelW > inShape[3] {
					t.Fatalf("trial %d: Winograd proposed with kernel larger than input", trial)
				}
			case core.SchemeStrassen1x1:
				if a.KernelH != 1 || a.KernelW != 1 {
					t.Fatalf("trial %d: 1x1 path proposed for k=%dx%d", trial, a.KernelH, a.KernelW)
				}
				if a.Group > 1 {
					t.Fatalf("trial %d: 1x1 path proposed with group %d", trial, a.Group)
				}
				if ph, pw := graph.ConvPadding(inShape[2], inShape[3], a); ph != 0 || pw != 0 {
					t.Fatalf("trial %d: 1x1 path proposed with padding %dx%d", trial, ph, pw)
				}
			case core.SchemeDepthwise:
				if !a.IsDepthwise() {
					t.Fatalf("trial %d: depthwise kernel proposed for non-depthwise conv", trial)
				}
			case core.SchemeSliding:
				if a.Group > 1 {
					t.Fatalf("trial %d: sliding kernel proposed with group %d", trial, a.Group)
				}
				if core.Strassen1x1Legal(a, inShape) {
					t.Fatalf("trial %d: sliding proposed beside the 1x1 path, which runs the same kernel", trial)
				}
			case core.SchemeIm2col:
				g := a.Group
				if g <= 0 {
					g = 1
				}
				if a.OutputCount%g != 0 || a.InputCount%g != 0 {
					t.Fatalf("trial %d: im2col proposed with indivisible groups", trial)
				}
			default:
				t.Fatalf("trial %d: unknown scheme %v proposed", trial, dec.Scheme)
			}
		}
	}
}

// TestCostModePickIsACandidate: the committed cost-model decision is always
// drawn from the legal candidate list (never an out-of-band scheme).
func TestCostModePickIsACandidate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a, inShape := randomConv(r)
		cands := core.ConvCandidates(a, inShape)
		best := rankCandidates(cands)[0]
		found := false
		for _, c := range cands {
			if c.Decision == best.Decision {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: ranked winner not in candidate set", trial)
		}
	}
}

// TestInt8PlanRespectsTunedSchemes: for every built-in network, the int8
// partition computed from a tuned plan's decisions marks a convolution int8
// only when Int8ConvSupported holds for the algorithm that will actually run
// — the tuned one, which its route carries — the plan/runtime consistency
// the quantized dispatch depends on.
func TestInt8PlanRespectsTunedSchemes(t *testing.T) {
	for _, net := range []string{"mobilenet-v1", "squeezenet-v1.1", "resnet-18"} {
		g, err := models.ByName(net)
		if err != nil {
			t.Fatal(err)
		}
		shapes, err := graph.InferShapes(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := New(g, shapes, Config{Mode: ModeCost})
		if err != nil {
			t.Fatal(err)
		}
		convs := core.DecideConvs(g, shapes, plan.Decisions, true)
		int8Plan := optimizer.PlanInt8With(g, convs)
		for _, n := range g.Nodes {
			if n.Op != graph.OpConv2D {
				continue
			}
			dec := plan.Decisions[n.Name]
			if convs[n.Name].ConvDecision != dec {
				t.Errorf("%s: node %q routed %+v, tuned %+v", net, n.Name, convs[n.Name].ConvDecision, dec)
			}
			a := n.Attrs.(*graph.Conv2DAttrs)
			if int8Plan.Int8[n.Name] && !core.Int8ConvSupported(a, shapes[n.Inputs[0]], dec, matmul.Int8ISA()) {
				t.Errorf("%s: node %q planned int8 but tuned scheme %v is not int8-supported",
					net, n.Name, dec.Scheme)
			}
		}
	}
}

// TestMeasuredModeCommitsAndCaches: a small measured search commits one
// decision per conv node, measures only unique signatures, persists the
// winners, and a second search resolves everything from the cache without
// spawning a single micro-benchmark.
func TestMeasuredModeCommitsAndCaches(t *testing.T) {
	g, err := models.ByName("squeezenet-v1.1")
	if err != nil {
		t.Fatal(err)
	}
	hw := 32
	override := map[string][]int{g.InputNames[0]: {1, 3, hw, hw}}
	shapes, err := graph.InferShapes(g, override)
	if err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(t.TempDir(), "sq.tuning.json")
	cfg := Config{Mode: ModeMeasured, Threads: 2, CachePath: cache, Reps: 1, TopK: 2}
	cold, err := New(g, shapes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	convs := 0
	for _, n := range g.Nodes {
		if n.Op == graph.OpConv2D {
			convs++
			if _, ok := cold.Decisions[n.Name]; !ok {
				t.Errorf("conv %q has no committed decision", n.Name)
			}
		}
	}
	if cold.Report.ConvOps != convs {
		t.Errorf("report covers %d conv ops, graph has %d", cold.Report.ConvOps, convs)
	}
	if cold.Report.Measured == 0 || !cold.Report.CacheSaved {
		t.Fatalf("cold search measured %d candidates, saved=%v — expected measurement and a cache write",
			cold.Report.Measured, cold.Report.CacheSaved)
	}
	warm, err := New(g, shapes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Measured != 0 {
		t.Errorf("warm search ran %d micro-benchmarks, want 0", warm.Report.Measured)
	}
	if warm.Report.CacheHits != warm.Report.Unique {
		t.Errorf("warm search hit %d/%d signatures", warm.Report.CacheHits, warm.Report.Unique)
	}
	for name, d := range cold.Decisions {
		if warm.Decisions[name] != d {
			t.Errorf("node %q: warm decision %+v != cold %+v", name, warm.Decisions[name], d)
		}
	}
}
