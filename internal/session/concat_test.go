package session

import (
	"context"
	"fmt"
	"testing"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/cpu"
	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/optimizer"
	"mnn/internal/tensor"
)

// optimized builds a zoo network as the engine runs it.
func optimized(t *testing.T, build func() *graph.Graph) *graph.Graph {
	t.Helper()
	g := build()
	if err := optimizer.Optimize(g); err != nil {
		t.Fatal(err)
	}
	return g
}

// cpuConfig configures a CPU backend of the given threads for g at the
// given input shapes, int8 (with the engine's conv decisions and int8
// partition) or fp32.
func cpuConfig(t *testing.T, g *graph.Graph, int8 bool, threads int, inputShapes map[string][]int) cpu.Config {
	t.Helper()
	cfg := cpu.Config{Threads: threads}
	if int8 {
		shapes, err := graph.InferShapes(g, inputShapes)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Convs = core.DecideConvs(g, shapes, nil, true)
		cfg.QuantPlan = optimizer.PlanInt8With(g, cfg.Convs).Int8
	}
	return cfg
}

// cpuSession prepares g on one CPU backend of the given threads, int8 or
// fp32.
func cpuSession(t *testing.T, g *graph.Graph, int8 bool, threads int, cfg Config) *Session {
	t.Helper()
	cfg.Backends = []backend.Backend{cpu.New(cpuConfig(t, g, int8, threads, cfg.InputShapes))}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// runOutput fills s's input "data" with in, runs s and returns a copy of
// its output.
func runOutput(t *testing.T, s *Session, in *tensor.Tensor) []float32 {
	t.Helper()
	s.Input("data").CopyFrom(in)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), s.Output(s.g.OutputNames[0]).Data()...)
}

// concatSteps counts the steps of s that run a concat.
func concatSteps(s *Session) int {
	n := 0
	for _, st := range s.steps {
		if st.node.Op == graph.OpConcat {
			n++
		}
	}
	return n
}

// TestSessionAliasesConcat: at planned batch 1 squeezenet's eight fire
// concats run in place (41 steps become 33) and inception-v3's eleven, fp32
// and int8, on an arena no larger than the copying (Unfused) session's and
// with the same output bits. Where the views would grow the arena (fp32
// squeezenet at 224² on two lanes, whose Winograd workspaces double) every
// concat copies. A NoPreparation session re-prepares to the same steps and
// bits every run, an Unfused one keeps every concat, a batch-2 plan copies,
// and a dynamic session re-slices the views at every shape, bit for bit
// with a copying dynamic session and at 0 allocations per repeated shape.
func TestSessionAliasesConcat(t *testing.T) {
	nets := []struct {
		name    string
		build   func() *graph.Graph
		side    int
		threads int
		inPlace [2]int // concats in place, fp32 and int8
	}{
		{"squeezenet-v1.1", models.SqueezeNetV11, 224, 1, [2]int{8, 8}},
		{"squeezenet-v1.1", models.SqueezeNetV11, 224, 2, [2]int{0, 8}},
		{"inception-v3", models.InceptionV3, 107, 2, [2]int{11, 11}},
	}
	for _, nc := range nets {
		g := optimized(t, nc.build)
		concats := 0
		for _, n := range g.Nodes {
			if n.Op == graph.OpConcat {
				concats++
			}
		}
		shape := []int{1, 3, nc.side, nc.side}
		for p, int8 := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%d²/t%d/int8=%v", nc.name, nc.side, nc.threads, int8), func(t *testing.T) {
				shapes := map[string][]int{"data": shape}
				aliased := cpuSession(t, g, int8, nc.threads, Config{InputShapes: shapes})
				copied := cpuSession(t, g, int8, nc.threads, Config{InputShapes: shapes, Unfused: true})
				in := aliased.Stats().InPlaceConcats
				if len(copied.steps) != len(g.Nodes) || concatSteps(copied) != concats || copied.Stats().InPlaceConcats != 0 {
					t.Fatalf("Unfused: %d steps of %d nodes, %d concat steps of %d", len(copied.steps), len(g.Nodes), concatSteps(copied), concats)
				}
				if in != nc.inPlace[p] || len(aliased.steps) != len(g.Nodes)-in || concatSteps(aliased) != concats-in {
					t.Fatalf("%d concats in place (want %d), %d steps of %d nodes, %d concat steps",
						in, nc.inPlace[p], len(aliased.steps), len(g.Nodes), concatSteps(aliased))
				}
				if nc.name == "squeezenet-v1.1" && in > 0 && len(aliased.steps) != 33 {
					t.Fatalf("%d steps, want 33", len(aliased.steps))
				}
				if a, c := aliased.Stats().ArenaFloats["CPU"], copied.Stats().ArenaFloats["CPU"]; a > c || (in == 0 && a != c) {
					t.Fatalf("arena %d floats with %d concats in place, %d copying", a, in, c)
				}
				for seed := uint64(1); seed <= 2; seed++ {
					x := tensor.NewRandom(seed, 1, shape...)
					want := runOutput(t, copied, x)
					if i := firstBitDiff(runOutput(t, aliased, x), want); i >= 0 {
						t.Fatalf("seed %d: element %d differs from the copy path", seed, i)
					}
				}
			})
		}
	}

	g := optimized(t, models.SqueezeNetV11)
	x := tensor.NewRandom(5, 1, 1, 3, 224, 224)
	want := runOutput(t, cpuSession(t, g, false, 1, Config{Unfused: true}), x)

	t.Run("NoPreparation", func(t *testing.T) {
		lazy := cpuSession(t, g, false, 1, Config{NoPreparation: true})
		for i := 0; i < 3; i++ {
			if j := firstBitDiff(runOutput(t, lazy, x), want); j >= 0 {
				t.Fatalf("run %d: element %d differs from the copy path", i, j)
			}
			if len(lazy.steps) != 33 || lazy.Stats().InPlaceConcats != 8 {
				t.Fatalf("run %d: %d steps, %d concats in place after re-prepare", i, len(lazy.steps), lazy.Stats().InPlaceConcats)
			}
		}
	})

	t.Run("batch 2 copies", func(t *testing.T) {
		s := cpuSession(t, g, false, 1, Config{InputShapes: map[string][]int{"data": {2, 3, 64, 64}}})
		if in := s.Stats().InPlaceConcats; in != 0 || concatSteps(s) != 8 {
			t.Fatalf("batch 2: %d concats in place, %d concat steps", in, concatSteps(s))
		}
	})

	for _, int8 := range []bool{false, true} {
		t.Run(fmt.Sprintf("dynamic/int8=%v", int8), func(t *testing.T) {
			maxShape := map[string][]int{"data": {1, 3, 96, 96}}
			dyn := cpuSession(t, g, int8, 2, Config{InputShapes: maxShape})
			copied := cpuSession(t, g, int8, 2, Config{InputShapes: maxShape, Unfused: true})
			if in := dyn.Stats().InPlaceConcats; in != 8 {
				t.Fatalf("%d concats in place", in)
			}
			for _, s := range []*Session{dyn, copied} {
				if err := s.EnableDynamic(); err != nil {
					t.Fatal(err)
				}
			}
			inputs := map[int]map[string]*tensor.Tensor{}
			for _, side := range []int{96, 64, 80, 96} {
				x := tensor.NewRandom(uint64(side), 1, 1, 3, side, side)
				inputs[side] = map[string]*tensor.Tensor{"data": x}
				for _, s := range []*Session{dyn, copied} {
					if err := s.ApplyInputShapes(inputs[side]); err != nil {
						t.Fatal(err)
					}
				}
				want := runOutput(t, copied, x)
				if i := firstBitDiff(runOutput(t, dyn, x), want); i >= 0 {
					t.Fatalf("%d²: element %d differs from the copy path", side, i)
				}
			}
			if allocs := testing.AllocsPerRun(3, func() {
				for _, side := range []int{64, 96} {
					if err := dyn.ApplyInputShapes(inputs[side]); err != nil {
						t.Fatal(err)
					}
					if err := dyn.Run(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
			}); allocs != 0 {
				t.Fatalf("alternating shapes: %.1f allocations per run", allocs)
			}
		})
	}
}

// TestEveryNetworkPlanPassesCheckPlan prepares every built-in network at
// batch 1 and 2, static and dynamic, fp32 and int8. OnAllocate refuses a
// plan memory.CheckPlan rejects — two live buffers sharing bytes, or a view
// outside its parent's chunk or lifetime — so each session that prepares
// passed it, in-place concats and all. The spatial sizes are the int8
// conformance suite's: inception's stride tree needs 107, vgg-16's fc 224
// (vgg-16 and resnet-50 only without -short).
func TestEveryNetworkPlanPassesCheckPlan(t *testing.T) {
	sides := map[string]int{"inception-v3": 107, "vgg-16": 224}
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "vgg-16" || name == "resnet-50") {
				t.Skip("heavy model in -short mode")
			}
			g, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := optimizer.Optimize(g); err != nil {
				t.Fatal(err)
			}
			input := g.InputNames[0]
			declared, err := graph.InferShapes(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			prepared := map[bool]*cpu.Prepared{false: new(cpu.Prepared), true: new(cpu.Prepared)}
			for _, batch := range []int{1, 2} {
				shape := append([]int(nil), declared[input]...)
				shape[0] = batch
				if len(shape) == 4 {
					side := sides[name]
					if side == 0 {
						side = 64
					}
					shape[2], shape[3] = side, side
				}
				for _, int8 := range []bool{false, true} {
					for _, dynamic := range []bool{false, true} {
						// Not cpuSession: a cleanup would hold every arena
						// until the test ends. The sessions of a precision
						// share their prepared weights, as an engine's do.
						shapes := map[string][]int{input: shape}
						bk := cpuConfig(t, g, int8, 2, shapes)
						bk.Prepared = prepared[int8]
						s, err := New(g, Config{InputShapes: shapes, Backends: []backend.Backend{cpu.New(bk)}})
						if err != nil {
							t.Fatal(err)
						}
						if dynamic {
							if err := s.EnableDynamic(); err != nil {
								t.Fatal(err)
							}
						}
						if st := s.Stats(); st.ArenaFloats["CPU"] > st.NoReuseFloats["CPU"] || (batch > 1 && st.InPlaceConcats > 0) {
							t.Fatalf("%v int8=%v: arena %d floats, %d without reuse, %d concats in place",
								shape, int8, st.ArenaFloats["CPU"], st.NoReuseFloats["CPU"], st.InPlaceConcats)
						}
						s.Close()
					}
				}
			}
		})
	}
}
