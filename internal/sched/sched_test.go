package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// coverTask records which indices were visited and by which worker.
type coverTask struct {
	hits  []int32
	maxW  atomic.Int32
	negW  atomic.Bool
	calls atomic.Int32
}

func (t *coverTask) RunChunk(worker, start, end int) {
	for w := t.maxW.Load(); int32(worker) > w && !t.maxW.CompareAndSwap(w, int32(worker)); w = t.maxW.Load() {
	}
	if worker < 0 {
		t.negW.Store(true)
	}
	t.calls.Add(1)
	for i := start; i < end; i++ {
		atomic.AddInt32(&t.hits[i], 1)
	}
}

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, lanes := range []int{1, 2, 3, 4, 8} {
		for _, total := range []int{0, 1, 2, 7, 64, 1000} {
			for _, chunk := range []int{0, 1, 3, 64, 2000} {
				p := New(lanes)
				ct := &coverTask{hits: make([]int32, total)}
				p.Run(total, chunk, ct)
				for i, h := range ct.hits {
					if h != 1 {
						t.Fatalf("lanes=%d total=%d chunk=%d: index %d visited %d times",
							lanes, total, chunk, i, h)
					}
				}
				// Worker indices are dense: 0 ≤ worker < lanes, so a task can
				// keep one workspace slot per lane.
				if int(ct.maxW.Load()) >= lanes || ct.negW.Load() {
					t.Fatalf("lanes=%d: worker index out of [0, %d) (max %d)", lanes, lanes, ct.maxW.Load())
				}
				if total == 0 && ct.calls.Load() != 0 {
					t.Fatalf("lanes=%d chunk=%d: empty range ran %d chunks", lanes, chunk, ct.calls.Load())
				}
				p.Close()
			}
		}
	}
}

func TestRunReusesWorkersAcrossDispatches(t *testing.T) {
	p := New(4)
	defer p.Close()
	for iter := 0; iter < 100; iter++ {
		ct := &coverTask{hits: make([]int32, 256)}
		p.Run(256, 16, ct)
		for i, h := range ct.hits {
			if h != 1 {
				t.Fatalf("iter %d: index %d visited %d times", iter, i, h)
			}
		}
	}
}

func TestRunAfterCloseIsInline(t *testing.T) {
	p := New(4)
	ct := &coverTask{hits: make([]int32, 32)}
	p.Run(32, 4, ct) // spawn workers
	p.Close()
	p.Close() // idempotent
	ct2 := &coverTask{hits: make([]int32, 32)}
	p.Run(32, 4, ct2)
	for i, h := range ct2.hits {
		if h != 1 {
			t.Fatalf("post-close: index %d visited %d times", i, h)
		}
	}
	if ct2.maxW.Load() != 0 {
		t.Fatalf("post-close run used worker %d, want inline worker 0", ct2.maxW.Load())
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Lanes() != 1 {
		t.Fatalf("nil pool lanes = %d, want 1", p.Lanes())
	}
	ct := &coverTask{hits: make([]int32, 16)}
	p.Run(16, 4, ct)
	if ct.calls.Load() != 1 {
		t.Fatalf("nil pool made %d calls, want 1 inline call", ct.calls.Load())
	}
	p.Close() // no-op
}

// nestedTask re-enters the pool from inside RunChunk; the inner dispatch
// must degrade to inline execution instead of deadlocking.
type nestedTask struct {
	p     *Pool
	inner *coverTask
	once  sync.Once
}

func (t *nestedTask) RunChunk(worker, start, end int) {
	t.once.Do(func() {
		t.p.Run(len(t.inner.hits), 1, t.inner)
	})
}

func TestNestedRunDegradesInline(t *testing.T) {
	p := New(4)
	defer p.Close()
	inner := &coverTask{hits: make([]int32, 8)}
	nt := &nestedTask{p: p, inner: inner}
	p.Run(16, 1, nt)
	for i, h := range inner.hits {
		if h != 1 {
			t.Fatalf("nested: index %d visited %d times", i, h)
		}
	}
}

func TestCloseDuringTrafficIsSafe(t *testing.T) {
	// Close must wait for the in-flight dispatch and never panic on the
	// wake channels. Run under -race this also checks the handoff rules.
	p := New(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			ct := &coverTask{hits: make([]int32, 128)}
			p.Run(128, 8, ct)
		}
	}()
	p.Close()
	<-done
}

func TestChunk(t *testing.T) {
	cases := []struct {
		total, lanes, perLane, want int
	}{
		{100, 4, 1, 25},
		{101, 4, 1, 26},
		{100, 4, 4, 7},
		{3, 8, 1, 1},
		{0, 4, 1, 1},
		{10, 0, 0, 10},
	}
	for _, c := range cases {
		if got := Chunk(c.total, c.lanes, c.perLane); got != c.want {
			t.Errorf("Chunk(%d,%d,%d) = %d, want %d", c.total, c.lanes, c.perLane, got, c.want)
		}
	}
}

func TestRunZeroAllocSteadyState(t *testing.T) {
	p := New(4)
	defer p.Close()
	ct := &coverTask{hits: make([]int32, 1024)}
	reset := func() {
		for i := range ct.hits {
			ct.hits[i] = 0
		}
	}
	p.Run(1024, 32, ct) // spawn workers outside the measurement
	reset()
	allocs := testing.AllocsPerRun(20, func() {
		p.Run(1024, 32, ct)
	})
	if allocs != 0 {
		t.Errorf("Pool.Run allocated %.1f objects/op in steady state, want 0", allocs)
	}
}

func BenchmarkDispatch(b *testing.B) {
	p := New(4)
	defer p.Close()
	ct := &coverTask{hits: make([]int32, 4096)}
	p.Run(4096, 256, ct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(4096, 256, ct)
	}
}

// panicTask panics on one specific index and counts normally elsewhere.
type panicTask struct {
	at    int
	calls atomic.Int32
}

func (t *panicTask) RunChunk(worker, start, end int) {
	t.calls.Add(1)
	for i := start; i < end; i++ {
		if i == t.at {
			panic("kernel exploded")
		}
	}
}

func TestRunContainsWorkerPanic(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		p := New(lanes)
		// Chunk 1 forces many chunks so the panicking index lands on a
		// worker lane in the multi-lane configurations as well as the
		// caller lane.
		for _, at := range []int{0, 7, 63} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("lanes=%d at=%d: panic was swallowed", lanes, at)
					}
					pe, ok := r.(*PanicError)
					if !ok {
						t.Fatalf("lanes=%d at=%d: re-panicked %T, want *PanicError", lanes, at, r)
					}
					if pe.Value != "kernel exploded" {
						t.Fatalf("panic value = %v", pe.Value)
					}
					if len(pe.Stack) == 0 {
						t.Fatal("PanicError carries no stack")
					}
				}()
				p.Run(64, 1, &panicTask{at: at})
			}()

			// The pool must remain fully usable after containment.
			ct := &coverTask{hits: make([]int32, 100)}
			p.Run(100, 3, ct)
			for i, h := range ct.hits {
				if h != 1 {
					t.Fatalf("lanes=%d: post-panic dispatch broken: index %d hit %d times", lanes, i, h)
				}
			}
		}
		p.Close()
	}
}
