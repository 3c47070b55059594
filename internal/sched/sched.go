// Package sched provides the persistent worker pool behind every
// multi-threaded kernel — the Go analogue of the pthread worker pools the
// paper's CPU backend keeps alive across inferences.
//
// Spawning fresh goroutines inside a parallel-for helper would pay for
// them on every operator of every inference. A Pool instead parks N-1
// workers on buffered wake channels once and re-dispatches them for the
// lifetime of a prepared session: a steady-state inference performs zero
// goroutine creations and zero heap allocations for scheduling. Work is
// split into fixed-size chunks pulled from an atomic cursor, so a slow
// worker (preempted, unlucky core) never strands a large static shard — the
// dynamic load balancing of a classic chunked tile queue.
//
// Dispatch protocol (all allocation-free):
//
//  1. Run stores the task and resets the cursor, then sends one token to
//     each needed worker's buffered wake channel (happens-before for the
//     task fields).
//  2. Caller and workers pull [start, end) chunks via cursor.Add until the
//     range is exhausted; each invocation carries a dense worker index for
//     kernels that keep per-worker scratch slabs.
//  3. Workers signal a WaitGroup; Run returns when the range is done.
//
// Chunk boundaries are a pure function of (total, chunk): which worker runs
// a chunk never influences results, so kernels stay bitwise deterministic
// under any scheduling — the property the serving tier's micro-batcher
// relies on.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a kernel panic recovered by the pool's containment barrier.
// Run re-panics it on the *caller's* goroutine (a panic left on a parked
// worker goroutine would kill the whole process); the session layer recovers
// it once more and converts it into an error carrying the op identity.
type PanicError struct {
	// Op is the operator the panic escaped from, filled in by the layer
	// that knows node identity (internal/session).
	Op string
	// Value is the original panic value.
	Value any
	// Stack is the stack of the goroutine that panicked, captured at
	// recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("sched: panic in kernel %q: %v", e.Op, e.Value)
	}
	return fmt.Sprintf("sched: panic in kernel: %v", e.Value)
}

// Task is one chunked parallel computation. RunChunk is called with
// disjoint [start, end) ranges covering [0, total) and a dense worker index
// 0 ≤ worker < Lanes(); implementations index per-worker scratch with it.
// RunChunk must not call back into the same Pool (nested dispatch runs the
// inner range inline on the calling worker).
type Task interface {
	RunChunk(worker, start, end int)
}

// Pool is a persistent worker pool of `lanes` execution lanes: the caller's
// goroutine plus lanes-1 parked workers, spawned lazily on the first
// parallel Run and shut down by Close. A nil *Pool is valid and runs
// everything inline (the threads ≤ 1 configuration).
//
// Run may be invoked from one goroutine at a time per Pool (each prepared
// session owns its pool and sessions are checked out exclusively); a
// concurrent or nested Run safely degrades to inline execution.
type Pool struct {
	lanes int

	mu      sync.Mutex // guards worker spawn
	started atomic.Bool
	closed  atomic.Bool
	busy    atomic.Bool
	wake    []chan struct{}
	wg      sync.WaitGroup

	// Current dispatch; written by Run before the wake sends, read by
	// workers after the receive (channel happens-before).
	task   Task
	total  int
	chunk  int
	cursor atomic.Int64

	// First panic recovered from any lane during the current dispatch;
	// re-panicked on the caller after wg.Wait restores the pool invariants.
	panicked atomic.Pointer[PanicError]
}

// New creates a pool with the given number of lanes (≤ 1 yields an inline
// pool with no workers). Workers are not spawned until the first Run that
// needs them, so preparing many sessions stays cheap.
func New(lanes int) *Pool {
	if lanes < 1 {
		lanes = 1
	}
	return &Pool{lanes: lanes}
}

// Lanes reports the number of execution lanes; 1 for a nil pool.
func (p *Pool) Lanes() int {
	if p == nil {
		return 1
	}
	return p.lanes
}

// Chunk returns the deterministic chunk size for splitting `total` items
// over `lanes` lanes with roughly `perLane` chunks per lane (≥ 1). More
// chunks per lane improve load balancing for non-uniform items at the cost
// of cursor traffic; perLane = 1 reproduces a static equal split.
func Chunk(total, lanes, perLane int) int {
	if lanes < 1 {
		lanes = 1
	}
	if perLane < 1 {
		perLane = 1
	}
	parts := lanes * perLane
	c := (total + parts - 1) / parts
	if c < 1 {
		c = 1
	}
	return c
}

// Run executes t over [0, total) in chunks of the given size (≤ 0 means one
// equal chunk per lane). It returns when the whole range has been processed.
// Inline execution (single chunk, nil/closed/busy pool) calls
// t.RunChunk(0, 0, total) on the caller's goroutine.
func (p *Pool) Run(total, chunk int, t Task) {
	if total <= 0 {
		return
	}
	lanes := p.Lanes()
	if chunk <= 0 || chunk > total {
		chunk = Chunk(total, lanes, 1)
	}
	chunks := (total + chunk - 1) / chunk
	if lanes <= 1 || chunks <= 1 || p == nil || p.closed.Load() ||
		!p.busy.CompareAndSwap(false, true) {
		runInline(t, total)
		return
	}
	p.ensureWorkers()
	p.task, p.total, p.chunk = t, total, chunk
	p.cursor.Store(0)
	helpers := lanes - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.wake[i] <- struct{}{}
	}
	p.safeDrain(0)
	p.wg.Wait()
	p.task = nil
	pe := p.panicked.Swap(nil)
	p.busy.Store(false)
	if pe != nil {
		panic(pe)
	}
}

// runInline executes the whole range on the caller's goroutine, normalizing
// a kernel panic into *PanicError so callers see one panic type regardless
// of which dispatch path ran.
func runInline(t Task, total int) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*PanicError); ok {
				panic(r)
			}
			panic(&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	t.RunChunk(0, 0, total)
}

// safeDrain is drain behind the containment barrier: a panic in a chunk is
// captured (first one wins), the cursor is exhausted so the other lanes stop
// pulling work, and the lane returns normally — Run re-raises the panic on
// the caller's goroutine once every lane has quiesced. The deferred recover
// costs a few nanoseconds per dispatch and no allocations on the no-panic
// path.
func (p *Pool) safeDrain(worker int) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Value: r, Stack: debug.Stack()}
			}
			p.panicked.CompareAndSwap(nil, pe)
			// Fast-forward the cursor past total: remaining chunks are
			// abandoned, the dispatch unwinds as quickly as possible.
			p.cursor.Add(int64(p.total) + int64(p.chunk))
		}
	}()
	p.drain(worker)
}

// drain pulls chunks off the shared cursor until the range is exhausted.
func (p *Pool) drain(worker int) {
	t, total, chunk := p.task, p.total, p.chunk
	for {
		end := int(p.cursor.Add(int64(chunk)))
		start := end - chunk
		if start >= total {
			return
		}
		if end > total {
			end = total
		}
		t.RunChunk(worker, start, end)
	}
}

// ensureWorkers spawns the parked workers once.
func (p *Pool) ensureWorkers() {
	if p.started.Load() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started.Load() {
		return
	}
	p.wake = make([]chan struct{}, p.lanes-1)
	for i := range p.wake {
		ch := make(chan struct{}, 1)
		p.wake[i] = ch
		id := i + 1
		go func() {
			for range ch {
				p.safeDrain(id)
				p.wg.Done()
			}
		}()
	}
	p.started.Store(true)
}

// Close shuts the workers down. It waits for an in-flight Run to finish,
// then releases the worker goroutines. Close is idempotent; Run after Close
// executes inline. A nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil || p.closed.Swap(true) {
		return
	}
	// Acquire the dispatch slot so no Run is mid-flight while the wake
	// channels close underneath it.
	for !p.busy.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	p.mu.Lock()
	for _, ch := range p.wake {
		close(ch)
	}
	p.wake = nil
	p.mu.Unlock()
	// busy stays true: the pool is permanently retired to inline mode.
}
