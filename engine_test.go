package mnn_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnn"
	"mnn/internal/fault"
	"mnn/internal/graph"
	"mnn/internal/tensor"
)

func openTiny(t *testing.T, opts ...mnn.Option) *mnn.Engine {
	t.Helper()
	eng, err := mnn.Open(tinyModel(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func TestEngineOpenVariants(t *testing.T) {
	// By *Graph.
	openTiny(t)
	// By built-in network name.
	eng, err := mnn.Open("squeezenet-v1.1")
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	// By io.Reader of the binary model format.
	var buf bytes.Buffer
	if err := mnn.SaveModel(tinyModel(t), &buf); err != nil {
		t.Fatal(err)
	}
	eng2, err := mnn.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Close()
	// By file path.
	path := filepath.Join(t.TempDir(), "tiny.mnng")
	if err := mnn.SaveModelFile(tinyModel(t), path); err != nil {
		t.Fatal(err)
	}
	eng3, err := mnn.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	eng3.Close()
	// Unknown name → typed error.
	if _, err := mnn.Open("definitely-not-a-network"); !errors.Is(err, mnn.ErrUnknownNetwork) {
		t.Fatalf("Open(unknown) = %v, want ErrUnknownNetwork", err)
	}
	// Unknown device → typed error.
	if _, err := mnn.Open(tinyModel(t), mnn.WithDevice("NokiaBrick")); !errors.Is(err, mnn.ErrUnknownDevice) {
		t.Fatalf("Open(bad device) = %v, want ErrUnknownDevice", err)
	}
	// GPU forward type the device lacks → typed error.
	if _, err := mnn.Open(tinyModel(t), mnn.WithDevice("MI6"), mnn.WithForwardType(mnn.ForwardMetal)); !errors.Is(err, mnn.ErrUnknownBackend) {
		t.Fatalf("Open(Metal on MI6) = %v, want ErrUnknownBackend", err)
	}
	// GPU forward type on the host, which has no device profile → typed error.
	if _, err := mnn.Open(tinyModel(t), mnn.WithForwardType(mnn.ForwardVulkan)); !errors.Is(err, mnn.ErrUnknownBackend) {
		t.Fatalf("Open(Vulkan on the host) = %v, want ErrUnknownBackend", err)
	}
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := mnn.Open(tinyModel(t), mnn.WithThreads(-1)); err == nil {
		t.Error("WithThreads(-1) must fail")
	}
	if _, err := mnn.Open(tinyModel(t), mnn.WithPoolSize(0)); err == nil {
		t.Error("WithPoolSize(0) must fail")
	}
	if _, err := mnn.Open(tinyModel(t), mnn.WithForwardType(mnn.ForwardType(99))); !errors.Is(err, mnn.ErrUnknownBackend) {
		t.Error("bad forward type must fail with ErrUnknownBackend")
	}
}

func TestEngineInferMatchesReference(t *testing.T) {
	eng := openTiny(t, mnn.WithThreads(2))
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 42, 1)
	out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], out["prob"]); d > 1e-4 {
		t.Fatalf("engine differs from reference by %g", d)
	}
	// Output tensors are caller-owned copies: mutating them must not affect
	// a subsequent inference.
	out["prob"].Data()[0] = 42
	out2, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], out2["prob"]); d > 1e-4 {
		t.Fatalf("second inference differs from reference by %g", d)
	}
}

// TestEngineInferConcurrent runs Infer from 8 goroutines against a pooled
// engine (the issue's race-detector test) and checks every result against
// the reference oracle for its input.
func TestEngineInferConcurrent(t *testing.T) {
	const goroutines = 8
	const itersPerG = 6
	eng := openTiny(t, mnn.WithPoolSize(4))

	// Precompute distinct inputs and their reference outputs.
	type tc struct {
		in  *mnn.Tensor
		ref *mnn.Tensor
	}
	cases := make([]tc, goroutines)
	for i := range cases {
		in := tensor.New(1, 3, 16, 16)
		tensor.FillRandom(in, uint64(100+i), 1)
		ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": in})
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = tc{in: in, ref: ref["prob"]}
	}

	var wg sync.WaitGroup
	errc := make(chan error, goroutines*itersPerG)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine cycles through every case so sessions see
			// different inputs back to back — stale state would show up as a
			// mismatch against the per-input reference.
			for j := 0; j < itersPerG; j++ {
				c := cases[(i+j)%len(cases)]
				out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": c.in})
				if err != nil {
					errc <- err
					return
				}
				if d := tensor.MaxAbsDiff(c.ref, out["prob"]); d > 1e-4 {
					errc <- fmt.Errorf("goroutine %d iter %d: output differs from reference by %g", i, j, d)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestEngineInferCancelledContext(t *testing.T) {
	eng := openTiny(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := tensor.New(1, 3, 16, 16)
	start := time.Now()
	_, err := eng.Infer(ctx, map[string]*mnn.Tensor{"data": in})
	if !errors.Is(err, mnn.ErrCancelled) {
		t.Fatalf("Infer(cancelled ctx) = %v, want ErrCancelled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled Infer took %v, want prompt return", elapsed)
	}
}

func TestEngineInferCancelledMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mobilenet-v1; skipping in -short mode")
	}
	// Every kernel is held up by 10 ms of injected latency, so the run lasts
	// at least ~30 × 10 ms of wall time however fast the kernels themselves
	// are. The cancel is sent once the first kernel has been dispatched, so
	// it lands while that kernel is running: after the run has started and
	// long before it could finish, however loaded the machine is. The count
	// (more than the graph's node count) lets Fired report dispatches.
	plan, err := mnn.ParseFaultPlan(1, "session.kernel=latency:10ms,count=100")
	if err != nil {
		t.Fatal(err)
	}
	fi := fault.NewInjector(plan)
	eng, err := mnn.Open("mobilenet-v1", mnn.WithThreads(1), mnn.WithFaultInjector(fi))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tensor.New(1, 3, 224, 224)
	tensor.FillRandom(in, 3, 1)
	kernelsBefore := fi.Fired(fault.SiteSessionKernel)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for fi.Fired(fault.SiteSessionKernel) == kernelsBefore {
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		cancel()
	}()
	_, err = eng.Infer(ctx, map[string]*mnn.Tensor{"data": in})
	if !errors.Is(err, mnn.ErrCancelled) {
		t.Fatalf("Infer with mid-run cancel = %v, want ErrCancelled", err)
	}
	if !strings.Contains(err.Error(), "cancelled at node") {
		t.Fatalf("Infer with mid-run cancel = %v, want a cancel between nodes", err)
	}
}

func TestEngineInputValidation(t *testing.T) {
	eng := openTiny(t)
	ctx := context.Background()
	// Missing input.
	if _, err := eng.Infer(ctx, nil); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("missing input: %v, want ErrInputShape", err)
	}
	// Unknown input name.
	bogus := map[string]*mnn.Tensor{
		"data":  tensor.New(1, 3, 16, 16),
		"extra": tensor.New(1),
	}
	if _, err := eng.Infer(ctx, bogus); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("unknown input: %v, want ErrInputShape", err)
	}
	// Wrong shape.
	wrong := map[string]*mnn.Tensor{"data": tensor.New(1, 3, 8, 8)}
	if _, err := eng.Infer(ctx, wrong); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("wrong shape: %v, want ErrInputShape", err)
	}
	// Declared input present but nil.
	if _, err := eng.Infer(ctx, map[string]*mnn.Tensor{"data": nil}); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("nil input tensor: %v, want ErrInputShape", err)
	}
	// Wrong rank.
	if _, err := eng.Infer(ctx, map[string]*mnn.Tensor{"data": tensor.New(3, 16, 16)}); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("wrong rank: %v, want ErrInputShape", err)
	}
}

func TestOpenRejectsDirectory(t *testing.T) {
	// A directory path passes os.Stat; it must be rejected up front with
	// ErrUnknownNetwork instead of failing deep inside LoadGraphFile.
	dir := t.TempDir()
	_, err := mnn.Open(dir)
	if !errors.Is(err, mnn.ErrUnknownNetwork) {
		t.Fatalf("Open(directory) = %v, want ErrUnknownNetwork", err)
	}
	if !strings.Contains(err.Error(), "directory") {
		t.Fatalf("Open(directory) error %q does not say it is a directory", err)
	}
}

func TestEngineClose(t *testing.T) {
	eng := openTiny(t)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	in := tensor.New(1, 3, 16, 16)
	if _, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in}); !errors.Is(err, mnn.ErrEngineClosed) {
		t.Fatalf("Infer after Close = %v, want ErrEngineClosed", err)
	}
}

// Close during in-flight work: the running Infer finishes normally, but no
// new inference may start afterwards — even though the in-flight session is
// checked back in after the pool was drained.
func TestEngineCloseWithInFlightInfer(t *testing.T) {
	eng := openTiny(t) // pool size 1
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 13, 1)
	started := make(chan struct{})
	inflight := make(chan error, 1)
	go func() {
		close(started)
		_, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		inflight <- err
	}()
	<-started
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-flight call either completed before Close or got ErrEngineClosed
	// while queueing; it must not fail any other way.
	if err := <-inflight; err != nil && !errors.Is(err, mnn.ErrEngineClosed) {
		t.Fatalf("in-flight Infer = %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in}); !errors.Is(err, mnn.ErrEngineClosed) {
			t.Fatalf("Infer %d after Close = %v, want ErrEngineClosed", i, err)
		}
	}
}

func TestEngineMetadata(t *testing.T) {
	eng := openTiny(t, mnn.WithPoolSize(2))
	if eng.PoolSize() != 2 {
		t.Fatalf("PoolSize = %d", eng.PoolSize())
	}
	if got := eng.InputNames(); len(got) != 1 || got[0] != "data" {
		t.Fatalf("InputNames = %v", got)
	}
	if got := eng.OutputNames(); len(got) != 1 || got[0] != "prob" {
		t.Fatalf("OutputNames = %v", got)
	}
	if got := eng.InputShape("data"); !tensor.EqualShape(got, []int{1, 3, 16, 16}) {
		t.Fatalf("InputShape = %v", got)
	}
	if st := eng.Stats(); len(st.Assignment) == 0 {
		t.Fatal("Stats must expose the pre-inference assignment")
	}
}

func TestEngineSimulatedClock(t *testing.T) {
	eng := openTiny(t, mnn.WithDevice("MI6"), mnn.WithForwardType(mnn.ForwardVulkan),
		mnn.WithSimulatedClock())
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 9, 1)
	eng.ResetSimulatedClock()
	if _, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in}); err != nil {
		t.Fatal(err)
	}
	if eng.SimulatedMs() <= 0 {
		t.Fatal("simulated clock must advance")
	}
	if len(eng.SimulatedByLabel()) == 0 {
		t.Fatal("per-label breakdown must be populated")
	}
	eng.ResetSimulatedClock()
	if eng.SimulatedMs() != 0 {
		t.Fatal("reset failed")
	}
	// Without the option every accessor is a safe no-op (nil clock).
	plain := openTiny(t)
	plain.ResetSimulatedClock()
	if plain.SimulatedMs() != 0 || plain.SimulatedByLabel() != nil {
		t.Fatal("nil clock accessors must be zero-valued")
	}
}

func TestEngineWithoutPreparation(t *testing.T) {
	// The ablation path forces pool size 1 and still matches the reference.
	eng := openTiny(t, mnn.WithoutPreparation(), mnn.WithPoolSize(4))
	if eng.PoolSize() != 1 {
		t.Fatalf("WithoutPreparation pool size = %d, want 1", eng.PoolSize())
	}
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 21, 1)
	out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], out["prob"]); d > 1e-4 {
		t.Fatalf("ablation engine differs from reference by %g", d)
	}
}

func TestEngineInferProfiled(t *testing.T) {
	eng := openTiny(t)
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 5, 1)
	out, p, err := eng.InferProfiled(context.Background(), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if out["prob"] == nil || len(p.Entries) == 0 {
		t.Fatalf("profiled run: out=%v entries=%d", out, len(p.Entries))
	}
}

func TestParseForwardType(t *testing.T) {
	for name, want := range map[string]mnn.ForwardType{
		"auto": mnn.ForwardAuto, "cpu": mnn.ForwardCPU, "CPU": mnn.ForwardCPU,
		"metal": mnn.ForwardMetal, "opencl": mnn.ForwardOpenCL,
		"opengl": mnn.ForwardOpenGL, "Vulkan": mnn.ForwardVulkan,
	} {
		got, err := mnn.ParseForwardType(name)
		if err != nil || got != want {
			t.Errorf("ParseForwardType(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := mnn.ParseForwardType("cuda"); !errors.Is(err, mnn.ErrUnknownBackend) {
		t.Error("ParseForwardType(cuda) must fail with ErrUnknownBackend")
	}
}

func TestDefaultThreadsResolution(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if want > 4 {
		want = 4
	}
	if got := mnn.DefaultThreads(); got != want {
		t.Fatalf("DefaultThreads() = %d, want min(GOMAXPROCS, 4) = %d", got, want)
	}
	// No WithThreads → auto.
	eng := openTiny(t)
	if got := eng.Threads(); got != want {
		t.Errorf("default engine threads = %d, want %d", got, want)
	}
	// WithThreads(0) → auto, not an error and not 1.
	eng0 := openTiny(t, mnn.WithThreads(0))
	if got := eng0.Threads(); got != want {
		t.Errorf("WithThreads(0) threads = %d, want %d", got, want)
	}
	// Explicit counts are preserved.
	eng2 := openTiny(t, mnn.WithThreads(2))
	if got := eng2.Threads(); got != 2 {
		t.Errorf("WithThreads(2) threads = %d, want 2", got)
	}
}

// TestOpenLeavesTheGraphAlone: engines opened at once on one graph — fp32,
// int8 and cost-tuned — each decide its depthwise convolution as depthwise,
// and none writes the shared graph: shape inference fills conv input channel
// counts in a copy, so the JSON model's unset counts stay unset (and the
// race detector sees no write).
func TestOpenLeavesTheGraphAlone(t *testing.T) {
	g := tinyModel(t)
	unset := map[string]bool{}
	for _, n := range g.Nodes {
		if a, ok := n.Attrs.(*graph.Conv2DAttrs); ok && a.InputCount == 0 {
			unset[n.Name] = true
		}
	}
	if !unset["dw"] {
		t.Fatal("the tiny model's depthwise conv declares its input channels; the test needs them unset")
	}
	opts := [][]mnn.Option{
		{mnn.WithThreads(1)},
		{mnn.WithThreads(1), mnn.WithPrecision(mnn.PrecisionInt8)},
		{mnn.WithThreads(1), mnn.WithTuning(mnn.TuningCost)},
	}
	var wg sync.WaitGroup
	for _, o := range append(opts, opts...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := mnn.Open(g, o...)
			if err != nil {
				t.Error(err)
				return
			}
			defer eng.Close()
			if sc := eng.Stats().SchemeCounts; sc["depthwise"] != 1 {
				t.Errorf("scheme counts %v, want the dw conv depthwise", sc)
			}
		}()
	}
	wg.Wait()
	for _, n := range g.Nodes {
		if a, ok := n.Attrs.(*graph.Conv2DAttrs); ok && unset[n.Name] && a.InputCount != 0 {
			t.Errorf("Open wrote conv %q's input channel count %d into the caller's graph", n.Name, a.InputCount)
		}
	}
}
