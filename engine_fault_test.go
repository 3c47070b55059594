package mnn_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mnn"
	"mnn/internal/fault"
	"mnn/internal/leakcheck"
	"mnn/internal/tensor"
)

func faultPlan(t *testing.T, seed uint64, spec string) *mnn.FaultPlan {
	t.Helper()
	p, err := mnn.ParseFaultPlan(seed, spec)
	if err != nil {
		t.Fatalf("ParseFaultPlan(%q): %v", spec, err)
	}
	return p
}

func tinyInput(t *testing.T) map[string]*mnn.Tensor {
	t.Helper()
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 7, 1)
	return map[string]*mnn.Tensor{"data": in}
}

func TestEngineInjectedError(t *testing.T) {
	leakcheck.Check(t)
	eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(2),
		mnn.WithFaultPlan(faultPlan(t, 1, "engine.infer=error,count=1")))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tinyInput(t)
	if _, err := eng.Infer(context.Background(), in); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first Infer = %v, want injected error", err)
	}
	// count=1: the budget is spent, later inferences are clean.
	if _, err := eng.Infer(context.Background(), in); err != nil {
		t.Fatalf("second Infer = %v, want success", err)
	}
	if n := eng.KernelPanics(); n != 0 {
		t.Fatalf("injected error counted as panic: %d", n)
	}
}

// TestEngineKernelPanicContained drives a panic out of a kernel dispatch and
// asserts the full containment chain: typed error with op identity and
// stack, the poisoned session rebuilt, and the engine healthy afterwards.
func TestEngineKernelPanicContained(t *testing.T) {
	leakcheck.Check(t)
	for _, threads := range []int{1, 4} {
		eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(threads),
			mnn.WithFaultPlan(faultPlan(t, 1, "session.kernel=panic,count=1,match=conv1")))
		if err != nil {
			t.Fatal(err)
		}
		in := tinyInput(t)
		_, err = eng.Infer(context.Background(), in)
		if !errors.Is(err, mnn.ErrKernelPanic) {
			t.Fatalf("threads=%d: Infer = %v, want ErrKernelPanic", threads, err)
		}
		var kp *mnn.KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("threads=%d: error %v is not a *KernelPanicError", threads, err)
		}
		if kp.Op != "conv1" {
			t.Fatalf("threads=%d: panic attributed to op %q, want conv1", threads, kp.Op)
		}
		if len(kp.Stack) == 0 || !strings.Contains(string(kp.Stack), "goroutine") {
			t.Fatalf("threads=%d: KernelPanicError has no usable stack", threads)
		}
		if n := eng.KernelPanics(); n != 1 {
			t.Fatalf("threads=%d: KernelPanics = %d, want 1", threads, n)
		}
		if n := eng.SessionRebuilds(); n != 1 {
			t.Fatalf("threads=%d: SessionRebuilds = %d, want 1", threads, n)
		}
		// The rebuilt session must produce correct results.
		out, err := eng.Infer(context.Background(), in)
		if err != nil {
			t.Fatalf("threads=%d: post-panic Infer = %v", threads, err)
		}
		ref, err := mnn.RunReference(tinyModel(t), in)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(ref["prob"], out["prob"]); d > 1e-4 {
			t.Fatalf("threads=%d: rebuilt session differs from reference by %g", threads, d)
		}
		eng.Close()
	}
}

// TestEngineSitePanicContained panics at the engine.infer site — above the
// session barrier — and asserts the engine-level recover still yields the
// typed error instead of crashing the caller.
func TestEngineSitePanicContained(t *testing.T) {
	leakcheck.Check(t)
	eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(1),
		mnn.WithFaultPlan(faultPlan(t, 1, "engine.infer=panic,count=1")))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tinyInput(t)
	_, err = eng.Infer(context.Background(), in)
	if !errors.Is(err, mnn.ErrKernelPanic) {
		t.Fatalf("Infer = %v, want ErrKernelPanic", err)
	}
	var kp *mnn.KernelPanicError
	if !errors.As(err, &kp) || kp.Op != "tiny" {
		t.Fatalf("panic not attributed to the graph: %v", err)
	}
	if _, err := eng.Infer(context.Background(), in); err != nil {
		t.Fatalf("post-panic Infer = %v", err)
	}
}

// TestEngineInferIntoPanicContained covers the zero-alloc path's barrier.
func TestEngineInferIntoPanicContained(t *testing.T) {
	leakcheck.Check(t)
	eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(2),
		mnn.WithFaultPlan(faultPlan(t, 1, "session.kernel=panic,count=1,match=pw")))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tinyInput(t)
	out := map[string]*mnn.Tensor{"prob": tensor.New(1, 16)}
	if err := eng.InferInto(context.Background(), in, out); !errors.Is(err, mnn.ErrKernelPanic) {
		t.Fatalf("InferInto = %v, want ErrKernelPanic", err)
	}
	if err := eng.InferInto(context.Background(), in, out); err != nil {
		t.Fatalf("post-panic InferInto = %v", err)
	}
}

// TestEngineInferProfiledFaults: the profiled path runs the same step loop
// as Infer, so the session.kernel site fires there too — an injected error
// comes back as that error, and an injected panic is contained and
// attributed to the node it hit, not to the graph.
func TestEngineInferProfiledFaults(t *testing.T) {
	leakcheck.Check(t)
	open := func(spec string) *mnn.Engine {
		eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(2),
			mnn.WithFaultPlan(faultPlan(t, 1, spec)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	in := tinyInput(t)

	eng := open("session.kernel=error,count=1,match=conv1")
	if _, _, err := eng.InferProfiled(context.Background(), in); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("InferProfiled under session.kernel=error = %v, want injected error", err)
	}

	eng = open("session.kernel=panic,count=1,match=conv1")
	_, _, err := eng.InferProfiled(context.Background(), in)
	var kp *mnn.KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("InferProfiled under session.kernel=panic = %v, want *KernelPanicError", err)
	}
	if kp.Op != "conv1" {
		t.Fatalf("panic attributed to op %q, want conv1", kp.Op)
	}
	// The poisoned session was rebuilt; the next profiled run is clean and
	// still reports one entry per operator.
	_, p, err := eng.InferProfiled(context.Background(), in)
	if err != nil {
		t.Fatalf("post-panic InferProfiled = %v", err)
	}
	if len(p.Entries) == 0 || p.Total <= 0 {
		t.Fatalf("post-panic profile = %+v", p)
	}
}

// TestEngineFaultDeterminism replays one plan twice and asserts the fault
// schedule lands on the same inferences both times.
func TestEngineFaultDeterminism(t *testing.T) {
	leakcheck.Check(t)
	run := func() []int {
		eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(1),
			mnn.WithFaultPlan(faultPlan(t, 42, "engine.infer=error,p=0.3")))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		in := tinyInput(t)
		var failed []int
		for i := 0; i < 40; i++ {
			if _, err := eng.Infer(context.Background(), in); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 40 {
		t.Fatalf("p=0.3 failed %d/40; expected a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

// TestEngineCloseReleasesWorkersAfterPanic pins the leak contract: panic →
// rebuild → Close still tears every worker goroutine down.
func TestEngineCloseReleasesWorkersAfterPanic(t *testing.T) {
	leakcheck.Check(t)
	eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(4), mnn.WithPoolSize(2),
		mnn.WithFaultPlan(faultPlan(t, 3, "session.kernel=panic,count=3,match=dw")))
	if err != nil {
		t.Fatal(err)
	}
	in := tinyInput(t)
	for i := 0; i < 8; i++ {
		eng.Infer(context.Background(), in)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(context.Background(), in); !errors.Is(err, mnn.ErrEngineClosed) {
		t.Fatalf("Infer after Close = %v, want ErrEngineClosed", err)
	}
}
