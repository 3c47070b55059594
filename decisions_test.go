package mnn_test

// The convolution decisions, pinned: the Equation 2–3 pick of every
// convolution of every built-in network at batches 1–3 and of 2 000 random
// convolutions, and each built-in network's fp32 scheme counts. Digests are
// of the full decisions — scheme, Winograd tile, EffMULs (the simulated
// clock's MUL term), DirectMULs and the bits of CostPerPixel — so a change to
// how the decision is computed must leave every value where it was.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"mnn"
	"mnn/internal/core"
	"mnn/internal/graph"
	"mnn/internal/models"
)

// pinnedZooDecisions is the digest of the decisions per network and batch.
var pinnedZooDecisions = map[string]string{
	"inception-v3@1":    "f4ea492e5bf1e47fee341a6d",
	"inception-v3@2":    "67bc9cc34c7228ff19ad099f",
	"inception-v3@3":    "421407a5ae564b19061918d0",
	"mobilenet-v1@1":    "e7654ef6a1718601b8604a95",
	"mobilenet-v1@2":    "7be8b609c5f9e1892b71e99e",
	"mobilenet-v1@3":    "b37ed375c9e84faa8251c747",
	"mobilenet-v2@1":    "0fe41485c71e4165a25e56c8",
	"mobilenet-v2@2":    "e3ef31fbf0389863ee395393",
	"mobilenet-v2@3":    "a856ef297b293b255ef89634",
	"resnet-18@1":       "9faf45b2100b27c139475e01",
	"resnet-18@2":       "9dda20a8f389117b89904216",
	"resnet-18@3":       "3aea312642dec1d6f706d3f7",
	"resnet-50@1":       "02609a2e3cda9b5be07abed7",
	"resnet-50@2":       "0e23141c4f5c333fc468709a",
	"resnet-50@3":       "0955fd3dd7b0fc7b4d51494c",
	"squeezenet-v1.0@1": "9baad4bd38c7e5f9ce85c259",
	"squeezenet-v1.0@2": "7bedc1fa0e2243ee2224d2ee",
	"squeezenet-v1.0@3": "f53852dfc7048f423c94bfda",
	"squeezenet-v1.1@1": "922433fb4f465ec706b6d6ad",
	"squeezenet-v1.1@2": "d85d3d878c997d8813dcd5f2",
	"squeezenet-v1.1@3": "2cbf900c5b916205883a8fa9",
	"vgg-16@1":          "26f8423d0956fbc4a2c2a069",
	"vgg-16@2":          "0f298db2dfbfd65c714580e9",
	"vgg-16@3":          "ef19c15298fbaa9bea15178f",
}

// pinnedRandomDecisions is the digest of the 2 000 random decisions.
const pinnedRandomDecisions = "08e567be0f6e874bc6c9225b"

// pinnedSchemeCounts is each built-in network's fp32 Stats().SchemeCounts.
var pinnedSchemeCounts = map[string]string{
	"mobilenet-v1":    "map[depthwise:13 sliding:1 strassen-1x1:13]",
	"mobilenet-v2":    "map[depthwise:17 sliding:1 strassen-1x1:34]",
	"squeezenet-v1.0": "map[sliding:1 strassen-1x1:17 winograd:8]",
	"squeezenet-v1.1": "map[sliding:1 strassen-1x1:17 winograd:8]",
	"resnet-18":       "map[sliding:4 strassen-1x1:3 winograd:13]",
	"resnet-50":       "map[sliding:4 strassen-1x1:36 winograd:13]",
	"inception-v3":    "map[sliding:5 strassen-1x1:40 winograd:49]",
	"vgg-16":          "map[winograd:13]",
	"transformer":     "map[]",
}

func writeDecision(h hash.Hash, label string, d core.ConvDecision) {
	fmt.Fprintf(h, "%s %v %d %d %d %d %016x\n", label, d.Scheme, d.TileH, d.TileW,
		d.EffMULs, d.DirectMULs, math.Float64bits(d.CostPerPixel))
}

// pinRandomConv draws from the tuner's randomized convolution space
// (depthwise, grouped, dilated, strided, asymmetric kernels, explicit
// padding), widened to batches 1–4 and maps of 4–303 pixels a side.
func pinRandomConv(r *rand.Rand) (*graph.Conv2DAttrs, []int) {
	ic := 1 + r.Intn(64)
	oc := 1 + r.Intn(64)
	k := []int{1, 1, 2, 3, 3, 5, 7}[r.Intn(7)]
	kw := k
	if r.Intn(8) == 0 {
		kw = []int{1, 3, 7}[r.Intn(3)]
	}
	a := &graph.Conv2DAttrs{
		KernelH: k, KernelW: kw,
		StrideH: 1 + r.Intn(3), StrideW: 1 + r.Intn(3),
		DilationH: 1 + r.Intn(2), DilationW: 1 + r.Intn(2),
		PadMode: graph.PadSame,
		Group:   1, InputCount: ic, OutputCount: oc,
	}
	switch r.Intn(5) {
	case 0:
		a.Group, a.InputCount, a.OutputCount = ic, ic, ic
	case 1:
		g := []int{2, 4}[r.Intn(2)]
		a.InputCount, a.OutputCount = ic*g, oc*g
		a.Group = g
	}
	if r.Intn(3) == 0 {
		a.PadMode = graph.PadExplicit
		a.PadH, a.PadW = r.Intn(3), r.Intn(3)
	}
	return a, []int{1 + r.Intn(4), a.InputCount, 4 + r.Intn(300), 4 + r.Intn(300)}
}

func TestConvDecisionPin(t *testing.T) {
	t.Run("zoo", func(t *testing.T) {
		got := map[string]string{}
		for _, net := range models.Names() {
			for batch := 1; batch <= 3; batch++ {
				g, err := models.ByName(net)
				if err != nil {
					t.Fatal(err)
				}
				in := map[string][]int{}
				for _, n := range g.Nodes {
					if n.Op == graph.OpInput {
						s := append([]int(nil), n.Attrs.(*graph.InputAttrs).Shape...)
						s[0] = batch
						in[n.Outputs[0]] = s
					}
				}
				shapes, err := graph.InferShapes(g, in)
				if err != nil {
					t.Fatal(err)
				}
				h, convs := sha256.New(), 0
				for _, n := range g.Nodes {
					if n.Op == graph.OpConv2D {
						writeDecision(h, n.Name, core.SelectConvScheme(n.Attrs.(*graph.Conv2DAttrs), shapes[n.Inputs[0]]))
						convs++
					}
				}
				if convs > 0 {
					got[fmt.Sprintf("%s@%d", net, batch)] = fmt.Sprintf("%x", h.Sum(nil)[:12])
				}
			}
		}
		for k, v := range got {
			if pinnedZooDecisions[k] != v {
				t.Errorf("%s: decisions digest %s, pinned %q", k, v, pinnedZooDecisions[k])
			}
		}
		if len(got) != len(pinnedZooDecisions) {
			t.Errorf("%d network×batch digests, %d pinned", len(got), len(pinnedZooDecisions))
		}
	})

	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(40))
		h := sha256.New()
		for i := 0; i < 2000; i++ {
			a, in := pinRandomConv(r)
			writeDecision(h, fmt.Sprintf("%+v %v", *a, in), core.SelectConvScheme(a, in))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != pinnedRandomDecisions {
			t.Errorf("random decisions digest %s, pinned %q", got, pinnedRandomDecisions)
		}
	})

	t.Run("scheme-counts", func(t *testing.T) {
		for _, net := range models.Names() {
			eng, err := mnn.Open(net, mnn.WithThreads(1))
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(eng.Stats().SchemeCounts)
			eng.Close()
			if got != pinnedSchemeCounts[net] {
				t.Errorf("%s: scheme counts %s, pinned %q", net, got, pinnedSchemeCounts[net])
			}
		}
	})
}
