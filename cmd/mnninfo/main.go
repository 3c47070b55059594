// Command mnninfo inspects a model: per-layer shapes, multiplication
// counts, the operator census, and the plan the engine makes for it at one
// thread — the scheme of each convolution, the Figure 3 arena (activations,
// kernel workspaces and in-place concats) — the kind of "more tools for user
// convenience" the paper's Section 5 plans. The plan is read from one
// mnn.Open of the model, so it costs a full pre-inference: about 1.6 s for
// vgg-16 and 0.34 s for inception-v3 on a 2-core AVX-512 host.
//
//	mnninfo -net inception-v3
//	mnninfo -in model.mnng -layers
package main

import (
	"flag"
	"fmt"
	"os"

	"mnn"
	"mnn/internal/core"
	"mnn/internal/graph"
	"mnn/internal/tensor"
)

func main() {
	binIn := flag.String("in", "", "binary model path")
	net := flag.String("net", "", "built-in network name instead of -in")
	layers := flag.Bool("layers", false, "print the per-layer table")
	flag.Parse()

	var g *mnn.Graph
	var err error
	switch {
	case *net != "":
		g, err = mnn.BuildNetwork(*net)
	case *binIn != "":
		g, err = mnn.LoadGraphFile(*binIn)
	default:
		fmt.Fprintln(os.Stderr, "mnninfo: -in or -net is required")
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		fail(err)
	}

	fmt.Printf("model: %s\n", g.Name)
	fmt.Printf("inputs: %v  outputs: %v\n", g.InputNames, g.OutputNames)

	// Census.
	fmt.Println("\noperator census:")
	for _, c := range g.OpCensus() {
		fmt.Printf("  %-14s %4d\n", c.Op, c.Count)
	}

	// Weights.
	var weightFloats, weightBytes int64
	for _, w := range g.Weights {
		weightFloats += int64(w.NumElements())
		switch w.DType() {
		case tensor.Int8:
			weightBytes += int64(w.NumElements())
		default:
			weightBytes += int64(w.NumElements()) * 4
		}
	}
	fmt.Printf("\nweights: %d tensors, %.2fM parameters, %.1f MB\n",
		len(g.Weights), float64(weightFloats)/1e6, float64(weightBytes)/(1<<20))

	// Compute.
	var totalMULs, convMULs int64
	for _, n := range g.Nodes {
		muls := graph.MULCount(n, shapes)
		totalMULs += muls
		if n.Op == graph.OpConv2D {
			convMULs += muls
		}
	}
	fmt.Printf("compute: %.1f GMACs total, %.1f GMACs in convolutions\n",
		float64(totalMULs)/1e9, float64(convMULs)/1e9)

	// The engine's own plan, at one thread.
	eng, err := mnn.Open(g, mnn.WithThreads(1))
	if err != nil {
		fail(err)
	}
	st := eng.Stats()
	eng.Close()
	var arena, noReuse int
	for name, n := range st.ArenaFloats {
		arena += n
		noReuse += st.NoReuseFloats[name]
	}
	fmt.Printf("pre-inference scheme mix: %v\n", st.SchemeCounts)
	fmt.Printf("arena: %.1f MB planned at one thread (%.1f MB without lifetime reuse, %.0f%% saved), %d concats in place\n",
		float64(arena)*4/(1<<20), float64(noReuse)*4/(1<<20),
		(1-float64(arena)/float64(noReuse))*100, st.InPlaceConcats)

	if *layers {
		fmt.Println("\nper-layer table:")
		fmt.Printf("%-28s %-13s %-18s %12s %-12s\n", "name", "op", "output", "MACs", "scheme")
		for _, n := range g.Nodes {
			out := ""
			if len(n.Outputs) > 0 {
				out = fmt.Sprint(shapes[n.Outputs[0]])
			}
			scheme := ""
			if n.Op == graph.OpConv2D {
				dec := core.SelectConvScheme(n.Attrs.(*graph.Conv2DAttrs), shapes[n.Inputs[0]])
				scheme = dec.Scheme.String()
				if dec.Scheme.String() == "winograd" {
					scheme = fmt.Sprintf("winograd %dx%d", dec.TileH, dec.TileW)
				}
			}
			fmt.Printf("%-28s %-13s %-18s %12d %-12s\n",
				trunc(n.Name, 28), n.Op, out, graph.MULCount(n, shapes), scheme)
		}
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mnninfo:", err)
	os.Exit(1)
}
