package tuner

// Cross-algorithm equivalence suite: for every built-in network, force each
// legal convolution algorithm onto every layer that admits it and assert the
// outputs agree with the default selection within a small fp32 budget. This
// pins the property the whole tuner rests on: any candidate the search can
// commit — however the cost model or a micro-benchmark ranks it — computes
// the same convolution. A wrong-answer kernel can therefore never be
// "picked fast"; it is caught here first.

import (
	"fmt"
	"testing"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/cpu"
	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

// forcedVariant is one algorithm family the suite forces network-wide.
type forcedVariant struct {
	name string
	// pick returns the forced decision for a conv, or false to keep the
	// default (the family is not legal there).
	pick func(cands []core.ConvCandidate) (core.ConvDecision, bool)
}

func schemeVariant(s core.ConvScheme, tile int) forcedVariant {
	name := s.String()
	if s == core.SchemeWinograd {
		name = fmt.Sprintf("%s-%d", name, tile)
	}
	return forcedVariant{name: name, pick: func(cands []core.ConvCandidate) (core.ConvDecision, bool) {
		for _, c := range cands {
			if c.Decision.Scheme != s {
				continue
			}
			if s == core.SchemeWinograd && c.Decision.TileH != tile && c.Decision.TileW != tile {
				continue
			}
			return c.Decision, true
		}
		return core.ConvDecision{}, false
	}}
}

var conformanceVariants = []forcedVariant{
	schemeVariant(core.SchemeSliding, 0),
	schemeVariant(core.SchemeIm2col, 0),
	schemeVariant(core.SchemeStrassen1x1, 0),
	schemeVariant(core.SchemeDepthwise, 0),
	schemeVariant(core.SchemeWinograd, 2),
	schemeVariant(core.SchemeWinograd, 4),
	schemeVariant(core.SchemeWinograd, 6),
}

// conformanceNets mirrors the root conformance suite's shape choices:
// small inputs except where a network's structure pins a minimum.
var conformanceNets = []struct {
	net   string
	hw    int
	heavy bool
}{
	{"mobilenet-v1", 64, false},
	{"mobilenet-v2", 64, false},
	{"squeezenet-v1.0", 64, false},
	{"squeezenet-v1.1", 64, false},
	{"resnet-18", 64, false},
	{"resnet-50", 64, true},
	{"inception-v3", 107, true},
	{"vgg-16", 224, true},
}

// crossAlgorithmBudget is the max-abs output deviation allowed between two
// legal algorithms for the same fp32 network. Winograd's transform
// arithmetic reorders float operations, so exact equality is impossible;
// observed deviations on these shapes are below 2e-5 (post-softmax), the
// budget sits an order of magnitude above.
const crossAlgorithmBudget = 2e-4

// runForced runs g on a CPU backend whose conv decisions are force's picks
// (the heuristic's where force is nil or declines) and returns the outputs
// and how many convolutions force decided.
func runForced(t *testing.T, g *graph.Graph, shapes map[string][]int, input *tensor.Tensor,
	force func(n *graph.Node) (core.ConvDecision, bool)) (map[string]*tensor.Tensor, int) {
	t.Helper()
	convs := core.ConvRoutes{}
	for _, n := range g.Nodes {
		if force == nil || n.Op != graph.OpConv2D {
			continue
		}
		if d, ok := force(n); ok {
			convs[n.Name] = core.ConvRoute{ConvDecision: d}
		}
	}
	bk := cpu.New(cpu.Config{Threads: 2, Convs: convs})
	s, err := session.New(g, session.Config{Backends: []backend.Backend{bk}, InputShapes: shapes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Input(g.InputNames[0]).CopyFrom(input)
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	outs := map[string]*tensor.Tensor{}
	for _, name := range g.OutputNames {
		outs[name] = s.Output(name).Clone()
	}
	return outs, len(convs)
}

func TestCrossAlgorithmEquivalence(t *testing.T) {
	for _, tc := range conformanceNets {
		tc := tc
		t.Run(tc.net, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy model in -short mode")
			}
			g, err := models.ByName(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			input := tensor.NewRandom(7, 1, 1, 3, tc.hw, tc.hw)
			shapes := map[string][]int{g.InputNames[0]: {1, 3, tc.hw, tc.hw}}
			inferred, err := graph.InferShapes(g, shapes)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := runForced(t, g, shapes, input, nil)

			for _, v := range conformanceVariants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					force := func(n *graph.Node) (core.ConvDecision, bool) {
						cands := core.ConvCandidates(n.Attrs.(*graph.Conv2DAttrs), inferred[n.Inputs[0]])
						return v.pick(cands)
					}
					got, admitted := runForced(t, g, shapes, input, force)
					if admitted == 0 {
						t.Skipf("no layer of %s admits %s", tc.net, v.name)
					}
					for name, r := range ref {
						if d := tensor.MaxAbsDiff(r, got[name]); d > crossAlgorithmBudget {
							t.Errorf("output %q: forcing %s on %d layers deviates %.3e from default, budget %.1e",
								name, v.name, admitted, d, crossAlgorithmBudget)
						}
					}
				})
			}
		})
	}
}
