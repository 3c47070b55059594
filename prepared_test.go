package mnn_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"mnn"
	"mnn/internal/tensor"
)

// bitsEqual reports whether a and b hold the same float32 bit patterns.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// weightBytes is the size of a graph's weight tensors.
func weightBytes(g *mnn.Graph) int64 {
	var n int64
	for _, w := range g.Weights {
		n += int64(w.NumElements()) * 4
	}
	return n
}

// heapAfter reports how much live heap open adds, measured between two
// collections with the opened engine still referenced.
func heapAfter(t *testing.T, open func() (*mnn.Engine, error)) (int64, *mnn.Engine) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := open()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), eng
}

// TestPooledSessionsShareOnePreparedWeightSet: the packed panels of an
// engine are built once and shared by its pooled sessions, so opening four
// sessions instead of one costs three arenas and the sessions' bookkeeping,
// not three more copies of the weights. mobilenet-v1 at 32×32 has 16 MiB of
// weights against a 0.1 MiB arena, so either way is unmistakable (with a
// packed copy per session, pool 4 added 50 MiB here).
func TestPooledSessionsShareOnePreparedWeightSet(t *testing.T) {
	g, err := mnn.BuildNetwork("mobilenet-v1")
	if err != nil {
		t.Fatal(err)
	}
	open := func(pool int) func() (*mnn.Engine, error) {
		return func() (*mnn.Engine, error) {
			return mnn.Open(g, mnn.WithThreads(1), mnn.WithPoolSize(pool),
				mnn.WithInputShapes(map[string][]int{"data": {1, 3, 32, 32}}))
		}
	}
	one, eng1 := heapAfter(t, open(1))
	eng1.Close()
	four, eng4 := heapAfter(t, open(4))
	defer eng4.Close()
	var arena int64
	for _, n := range eng4.Stats().ArenaFloats {
		arena += int64(n) * 4
	}
	growth, weights := four-one, weightBytes(g)
	t.Logf("pool 1: +%d KiB; pool 4: +%d KiB; arena %d KiB; weights %d KiB", one>>10, four>>10, arena>>10, weights>>10)
	if one < weights {
		t.Fatalf("a pool-1 engine holds %d KiB, less than its %d KiB of weights packed once", one>>10, weights>>10)
	}
	if growth > 3*(arena+256<<10) {
		t.Fatalf("three more sessions cost %d KiB: more than three %d KiB arenas and their bookkeeping", growth>>10, arena>>10)
	}
}

// TestPooledInferIntoRaceWithRebuild drives a pool-8 engine from eight
// goroutines at once, fp32 and int8, while one inference panics inside a
// kernel and its session is rebuilt. Every other call must return the
// pool-1 engine's bits, and the whole run must allocate one session's arena
// for the rebuild and far less than the weights besides: the rebuilt session
// re-uses the engine's prepared weights. Run under -race in CI.
func TestPooledInferIntoRaceWithRebuild(t *testing.T) {
	g, err := mnn.BuildNetwork("squeezenet-v1.1")
	if err != nil {
		t.Fatal(err)
	}
	shape := mnn.WithInputShapes(map[string][]int{"data": {1, 3, 32, 32}})
	in := map[string]*mnn.Tensor{"data": tensor.NewRandom(3, 1, 1, 3, 32, 32)}
	const goroutines, calls = 8, 3
	for _, prec := range []mnn.Precision{mnn.PrecisionFP32, mnn.PrecisionInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			ref, err := mnn.Open(g, shape, mnn.WithThreads(1), mnn.WithPrecision(prec))
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Infer(context.Background(), in)
			ref.Close()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := mnn.ParseFaultPlan(1, "session.kernel=panic,after=5,count=1,match=conv10")
			if err != nil {
				t.Fatal(err)
			}
			eng, err := mnn.Open(g, shape, mnn.WithThreads(2), mnn.WithPoolSize(goroutines),
				mnn.WithPrecision(prec), mnn.WithFaultPlan(plan))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines*calls)
			for w := 0; w < goroutines; w++ {
				out := map[string]*mnn.Tensor{"prob": mnn.NewTensor(want["prob"].Shape()...)}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						err := eng.InferInto(context.Background(), in, out)
						switch {
						case errors.Is(err, mnn.ErrKernelPanic):
						case err != nil:
							errs <- err
						case !bitsEqual(out["prob"].Data(), want["prob"].Data()):
							errs <- fmt.Errorf("pooled output differs from the pool-1 engine's")
						}
					}
				}()
			}
			wg.Wait()
			runtime.ReadMemStats(&after)
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if p, r := eng.KernelPanics(), eng.SessionRebuilds(); p != 1 || r != 1 {
				t.Fatalf("%d panics, %d rebuilds; want 1 and 1", p, r)
			}
			var arena int64
			for _, n := range eng.Stats().ArenaFloats {
				arena += int64(n) * 4
			}
			if alloc, weights := int64(after.TotalAlloc-before.TotalAlloc), weightBytes(g); alloc > arena+weights/4 {
				t.Fatalf("the run allocated %d KiB with one rebuild, against a %d KiB arena and %d KiB of weights: the rebuild re-prepared them", alloc>>10, arena>>10, weights>>10)
			}
		})
	}
}

// TestWithoutPreparationRecreatesKernelsEveryRun: the Table 2 ablation keeps
// no prepared weights, so every run packs the weights again — it allocates
// at least their size per inference, where a prepared engine's InferInto
// allocates nothing.
func TestWithoutPreparationRecreatesKernelsEveryRun(t *testing.T) {
	g, err := mnn.BuildNetwork("squeezenet-v1.1")
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]*mnn.Tensor{"data": tensor.NewRandom(4, 1, 1, 3, 32, 32)}
	for _, noPrep := range []bool{false, true} {
		opts := []mnn.Option{mnn.WithThreads(1), mnn.WithInputShapes(map[string][]int{"data": {1, 3, 32, 32}})}
		if noPrep {
			opts = append(opts, mnn.WithoutPreparation())
		}
		eng, err := mnn.Open(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]*mnn.Tensor{"prob": mnn.NewTensor(1, 1000)}
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			if err := eng.InferInto(context.Background(), in, out); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		eng.Close()
		perRun, weights := int64(after.TotalAlloc-before.TotalAlloc)/2, weightBytes(g)
		if noPrep && perRun < weights {
			t.Errorf("WithoutPreparation allocated %d KiB per run, less than the %d KiB of weights it must re-pack", perRun>>10, weights>>10)
		}
		if !noPrep && perRun != 0 {
			t.Errorf("a prepared engine allocated %d B per InferInto", perRun)
		}
	}
}
