package cpu

import (
	"context"
	"maps"
	"math"
	"testing"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/optimizer"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

// TestPreparedBuildsEachWeightOnce: sessions on CPU backends that share one
// Prepared — fp32 and int8, convolution nets and the transformer — hold one
// prepared weight per convolution, fully-connected and weight-form MatMul
// node. The first session builds them all; three more sessions neither add
// nor replace one, and every session computes the bits of a session that
// prepared its own.
func TestPreparedBuildsEachWeightOnce(t *testing.T) {
	for _, tc := range []struct {
		net   string
		shape []int
		int8  bool
	}{
		{"squeezenet-v1.1", []int{1, 3, 32, 32}, false},
		{"squeezenet-v1.1", []int{1, 3, 32, 32}, true},
		{"mobilenet-v1", []int{1, 3, 32, 32}, false},
		{"transformer", nil, false},
	} {
		g, err := models.ByName(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		input := g.InputNames[0]
		var shapes map[string][]int
		if tc.shape != nil {
			shapes = map[string][]int{input: tc.shape}
		}
		in := tensor.New(g.Node(input).Attrs.(*graph.InputAttrs).Shape...)
		if tc.shape != nil {
			in = tensor.New(tc.shape...)
		}
		tensor.FillRandom(in, 1, 1)
		cfg := Config{Threads: 1}
		if tc.int8 {
			inferred, err := graph.InferShapes(g, shapes)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Convs = core.DecideConvs(g, inferred, nil, true)
			cfg.QuantPlan = optimizer.PlanInt8With(g, cfg.Convs).Int8
		}
		run := func(p *Prepared) []float32 {
			t.Helper()
			cfg := cfg
			cfg.Prepared = p
			s, err := session.New(g, session.Config{InputShapes: shapes,
				Backends: []backend.Backend{New(cfg)}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Input(input).CopyFrom(in)
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			out := tensor.New(s.Output(g.OutputNames[0]).Shape()...)
			out.CopyFrom(s.Output(g.OutputNames[0]))
			return out.Data()
		}

		want := run(nil)
		p := new(Prepared)
		outs := [][]float32{run(p)}
		first := maps.Clone(p.m)
		weighted := 0
		for _, n := range g.Nodes {
			if n.Op == graph.OpConv2D || n.Op == graph.OpInnerProduct || n.Op == graph.OpMatMul && len(n.WeightNames) > 0 {
				weighted++
			}
		}
		if len(first) != weighted {
			t.Fatalf("%s int8=%v: %d prepared weights for %d weighted nodes", tc.net, tc.int8, len(first), weighted)
		}
		for i := 0; i < 3; i++ {
			outs = append(outs, run(p))
		}
		if !maps.Equal(p.m, first) {
			t.Fatalf("%s int8=%v: later sessions added or replaced prepared weights", tc.net, tc.int8)
		}
		for i, got := range outs {
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s int8=%v: session %d on shared weights differs at %d", tc.net, tc.int8, i, j)
				}
			}
		}
	}
}
