package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mnn"
	"mnn/internal/tensor"
	"mnn/serve/admission"
)

// DefaultMaxBuckets is the shape-queue bound used when BatchConfig enables
// batching without choosing one.
const DefaultMaxBuckets = 4

// errNoBucket is the scheduler's internal "cannot give this request a
// bucket" answer (the bucket table is full of busy buckets). infer
// translates it into a fall-through to the unbatched engine; it never
// escapes to callers.
var errNoBucket = errors.New("serve: no batch bucket available")

// dispatchWorkers is how many batches run at once; the next batch stacks
// while the previous one computes.
const dispatchWorkers = 2

// Why a bucket's queue was cut (the reason label of mnn_batch_cuts_total).
const (
	cutFull  = "full"  // the queue reached maxBatch
	cutIdle  = "idle"  // no admitted request could still join, and a worker was free
	cutDue   = "due"   // a member's window (or deadline budget) ran out
	cutDrain = "drain" // shutdown
)

var cutReasons = []string{cutFull, cutIdle, cutDue, cutDrain}

// batcher implements shape-bucketed continuous batching for one model.
// Concurrent single-sample requests are keyed by their input-shape
// signature into buckets: exact-shape queues, because stacking only
// identical shapes keeps every result bitwise equal to an unbatched run.
// Every bucket's batches run on one shared engine planned once, with
// WithMaxInputShapes, at [maxBatch, max...], where max is the unbatched
// engine's planned maximum (its declared shape when it is static). A batch
// of n requests stacks exactly n; the engine re-derives every shape for it,
// so no padded slot ever computes.
//
// The batcher accepts exactly the shapes the unbatched engine accepts; any
// other request, and any request that finds the bucket table full of busy
// buckets, falls through to the unbatched engine. Idle buckets are evicted
// least-recently-used when the table exceeds maxBuckets; a bucket owns no
// engine, so eviction is bookkeeping.
//
// A scheduler goroutine cuts an idle bucket's queue into a batch when it
// fills, when no admitted request is still on its way to a bucket and a
// dispatch worker is free (nothing could join the batch, so waiting buys
// nothing), or when its oldest request's window (bounded by the request's
// effective deadline) expires. It orders ready batches earliest-deadline-
// first and hands them to dispatchWorkers workers.
type batcher struct {
	fallback   *mnn.Engine // the model's unbatched engine (not owned)
	shared     *mnn.Engine // the one batch engine (owned)
	maxBatch   int
	maxLatency time.Duration
	maxBuckets int
	slo        time.Duration // admission SLO; bounds effective deadlines

	// lo and hi bound each input's per-request dims, leading 1 included:
	// the shapes the unbatched engine accepts (lo == hi when it is static).
	lo, hi map[string][]int

	inputNames  []string
	outputNames []string

	hooks batcherHooks

	reqs     chan *batchReq
	dispatch chan *batch
	kick     chan struct{}
	quit     chan struct{}
	done     chan struct{}
	workers  sync.WaitGroup

	// mu guards the bucket table, every bucket's queue/usage fields and
	// outstanding.
	mu      sync.Mutex
	buckets map[string]*bucket
	// outstanding counts batches cut but not yet finished, across buckets:
	// those running on a worker and those ready to hand to one.
	outstanding int

	// approaching counts the requests inside infer that have passed
	// admission but are not yet in a bucket: up from before the send on
	// reqs until the scheduler has queued (or refused) them or they give
	// up on the send. Requests waiting for admission are not counted: they
	// wait for a slot a queued request holds.
	approaching atomic.Int64

	batchRuns atomic.Int64 // shared-engine invocations (tests, stats)
	evictions atomic.Int64
}

// batcherHooks are the Model-side observers a batcher reports into. Any
// field may be nil.
type batcherHooks struct {
	// onFlush observes every dispatched batch (metrics: cumulative fill
	// ratio, cut reasons, each member's wait from arrival to cut).
	onFlush func(bt *batch)
	// beforeRun runs on the dispatch worker before a batch touches an
	// engine; tests block in it to hold a run.
	beforeRun func(bt *batch)
	// onEvict observes one bucket eviction.
	onEvict func()
}

// bucket is one shape signature's queue.
type bucket struct {
	sig      string
	perShape map[string][]int
	perLen   map[string]int

	// Guarded by batcher.mu:
	pending  []*batchReq
	busy     int // batches cut but not yet finished (blocks eviction)
	lastUsed time.Time
	flushes  uint64
	samples  uint64
}

type batchReq struct {
	ctx     context.Context
	inputs  map[string]*mnn.Tensor
	sig     string
	arrival time.Time
	// deadline is the request's effective deadline (admission's rule: the
	// earlier of the ctx deadline and arrival+SLO); zero means unbounded.
	deadline time.Time
	resp     chan batchResp
}

// due is when this request forces its bucket to flush: the end of the
// batching window, pulled earlier for requests whose effective deadline
// cannot afford the full window (they keep their remaining budget for the
// actual run instead of rotting in the queue).
func (rq *batchReq) due(window time.Duration) time.Time {
	d := rq.arrival.Add(window)
	if !rq.deadline.IsZero() {
		if early := rq.deadline.Add(-window); early.Before(d) {
			d = early
		}
		if d.Before(rq.arrival) {
			d = rq.arrival
		}
	}
	return d
}

// edfKey orders ready batches: the effective deadline where one exists,
// otherwise the window end.
func (rq *batchReq) edfKey(window time.Duration) time.Time {
	if !rq.deadline.IsZero() {
		return rq.deadline
	}
	return rq.arrival.Add(window)
}

type batchResp struct {
	outputs map[string]*mnn.Tensor
	err     error
}

// batch is one cut bucket queue on its way through dispatch.
type batch struct {
	bkt    *bucket
	reqs   []*batchReq
	due    time.Time // earliest edfKey among members
	reason string    // one of cutReasons
	cutAt  time.Time
}

// newBatcher opens the shared batch engine and starts the scheduler.
func newBatcher(cfg ModelConfig, fallback *mnn.Engine, hooks batcherHooks) (*batcher, error) {
	b := &batcher{
		fallback:    fallback,
		maxBatch:    cfg.Batch.MaxBatch,
		maxLatency:  cfg.Batch.MaxLatency,
		maxBuckets:  cfg.Batch.Buckets,
		slo:         cfg.Admission.SLO,
		hooks:       hooks,
		inputNames:  fallback.InputNames(),
		outputNames: fallback.OutputNames(),
		lo:          make(map[string][]int),
		hi:          make(map[string][]int),
		reqs:        make(chan *batchReq),
		dispatch:    make(chan *batch),
		kick:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		buckets:     make(map[string]*bucket),
	}
	if b.maxLatency <= 0 {
		b.maxLatency = DefaultMaxLatency
	}
	if b.maxBuckets <= 0 {
		b.maxBuckets = DefaultMaxBuckets
	}
	planned := fallback.DynamicShapes() // nil on a static engine
	for _, name := range b.inputNames {
		lo, hi := slices.Repeat([]int{1}, len(planned[name])), planned[name]
		if planned == nil {
			hi = fallback.InputShape(name)
			lo = hi
		}
		if len(hi) == 0 || hi[0] != 1 {
			return nil, fmt.Errorf("input %q has shape %v: batching needs a leading batch dim of 1", name, hi)
		}
		b.lo[name], b.hi[name] = lo, hi
	}
	if err := b.openShared(cfg); err != nil {
		return nil, err
	}
	b.workers.Add(dispatchWorkers)
	for i := 0; i < dispatchWorkers; i++ {
		go b.worker()
	}
	go b.loop()
	return b, nil
}

// openShared opens the one batch engine, planned at [maxBatch, hi...], and
// probes it at the full batch shape so "outputs cannot split along dim 0"
// fails at Load time. Its pool matches the dispatch workers: batches from
// different buckets run concurrently. Batched results must equal unbatched
// ones, so the shared engine (CPU-only: dynamic shapes are) must schedule
// every node where the unbatched engine does.
func (b *batcher) openShared(cfg ModelConfig) error {
	shapes := make(map[string][]int, len(b.inputNames))
	for _, name := range b.inputNames {
		shapes[name] = append([]int{b.maxBatch}, b.hi[name][1:]...)
	}
	eng, err := mnn.Open(cfg.Model, append(append([]mnn.Option(nil), cfg.Options...),
		mnn.WithMaxInputShapes(shapes), mnn.WithPoolSize(dispatchWorkers))...)
	if err != nil {
		return fmt.Errorf("opening the shared batch-%d engine: %w", b.maxBatch, err)
	}
	shared := eng.Stats().Assignment
	for node, bk := range b.fallback.Stats().Assignment {
		if shared[node] != bk {
			eng.Close()
			return fmt.Errorf("%w: batching runs on the CPU backend, and the unbatched engine schedules node %q on %s",
				mnn.ErrUnknownBackend, node, bk)
		}
	}
	probe := make(map[string]*mnn.Tensor, len(b.inputNames))
	for name, s := range shapes {
		probe[name] = tensor.New(s...)
	}
	out, err := eng.Infer(context.Background(), probe)
	if err == nil {
		_, err = splitOutputs(b.outputNames, out, b.maxBatch)
	}
	if err != nil {
		eng.Close()
		return fmt.Errorf("probing the shared batch-%d engine: %w", b.maxBatch, err)
	}
	b.shared = eng
	return nil
}

// newBucket builds the queue of one signature.
func (b *batcher) newBucket(sig string, shapes map[string][]int) *bucket {
	bkt := &bucket{
		sig:      sig,
		perShape: make(map[string][]int, len(b.inputNames)),
		perLen:   make(map[string]int, len(b.inputNames)),
		lastUsed: time.Now(),
	}
	for _, name := range b.inputNames {
		per := append([]int(nil), shapes[name]...)
		bkt.perShape[name] = per
		bkt.perLen[name] = tensor.NumElements(per)
	}
	return bkt
}

// signatureOf renders the canonical bucket key of a shape set, e.g.
// "data=1x3x16x16" (multiple inputs joined by ";" in declared order).
func signatureOf(names []string, shapes map[string][]int) string {
	var sb strings.Builder
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(name)
		sb.WriteByte('=')
		for j, d := range shapes[name] {
			if j > 0 {
				sb.WriteByte('x')
			}
			sb.WriteString(strconv.Itoa(d))
		}
	}
	return sb.String()
}

// signature computes the request's bucket key, or ok=false when the
// unbatched engine would not accept the request as one batch slot (wrong
// input set, a leading batch dim that isn't 1, a shape outside lo..hi):
// those fall through to it, and it reports the precise typed error.
func (b *batcher) signature(inputs map[string]*mnn.Tensor) (string, bool) {
	if len(inputs) != len(b.inputNames) {
		return "", false
	}
	shapes := make(map[string][]int, len(b.inputNames))
	for _, name := range b.inputNames {
		t, ok := inputs[name]
		if !ok || t == nil {
			return "", false
		}
		s, lo, hi := t.Shape(), b.lo[name], b.hi[name]
		if len(s) != len(hi) {
			return "", false
		}
		for i, d := range s {
			if d < lo[i] || d > hi[i] {
				return "", false
			}
		}
		shapes[name] = s
	}
	return signatureOf(b.inputNames, shapes), true
}

// infer submits one request to its shape bucket. The caller's context
// travels with the request: a caller that gives up while queued is dropped
// at stack time instead of burning an engine run.
func (b *batcher) infer(ctx context.Context, inputs map[string]*mnn.Tensor) (map[string]*mnn.Tensor, error) {
	sig, ok := b.signature(inputs)
	if !ok {
		return b.fallback.Infer(ctx, inputs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	now := time.Now()
	deadline, _ := admission.EffectiveDeadline(ctx, now, b.slo)
	rq := &batchReq{
		ctx: ctx, inputs: inputs, sig: sig, arrival: now,
		deadline: deadline, resp: make(chan batchResp, 1),
	}
	b.approaching.Add(1)
	select {
	case b.reqs <- rq:
	case <-b.quit:
		b.depart()
		return b.fallback.Infer(ctx, inputs)
	case <-ctx.Done():
		b.depart()
		return nil, fmt.Errorf("%w: %v", mnn.ErrCancelled, ctx.Err())
	}
	select {
	case resp := <-rq.resp:
		if errors.Is(resp.err, errNoBucket) {
			return b.fallback.Infer(ctx, inputs)
		}
		return resp.outputs, resp.err
	case <-ctx.Done():
		// The batch still runs (or drops us at stack time); the buffered
		// channel absorbs the late response either way.
		return nil, fmt.Errorf("%w: %v", mnn.ErrCancelled, ctx.Err())
	}
}

// depart takes a request that gave up on its way to a bucket out of
// approaching; the last one out wakes the scheduler, whose idle queues
// nothing can join any more.
func (b *batcher) depart() {
	if b.approaching.Add(-1) == 0 {
		b.wake()
	}
}

// wake asks the scheduler to re-evaluate its queues.
func (b *batcher) wake() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// loop is the scheduler: it owns batch formation and never blocks on
// engine work. Ready batches queue in EDF order behind a nil-able send to
// the dispatch workers; a single timer tracks the earliest flush due time
// across buckets.
func (b *batcher) loop() {
	defer close(b.done)
	var (
		ready  []*batch
		next   *batch
		timer  *time.Timer
		timerC <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timerC = nil
	}
	for {
		if next == nil && len(ready) > 0 {
			next = popEarliest(&ready)
		}
		var sendC chan *batch
		if next != nil {
			sendC = b.dispatch
		}
		if due, ok := b.earliestDue(); ok {
			d := time.Until(due)
			if d < 0 {
				d = 0
			}
			stopTimer()
			if timer == nil {
				timer = time.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			timerC = timer.C
		} else {
			stopTimer()
		}
		select {
		case rq := <-b.reqs:
			b.enqueue(rq, &ready)
			if b.approaching.Load() == 0 {
				b.cutReady(&ready, time.Now())
			}
		case sendC <- next:
			next = nil
		case <-timerC:
			timerC = nil
			b.cutReady(&ready, time.Now())
		case <-b.kick:
			// A run finished (a bucket went idle, a worker is free) or the
			// last approaching request gave up.
			b.cutReady(&ready, time.Now())
		case <-b.quit:
			stopTimer()
			// Drain whatever raced in, then flush every queue so each
			// accepted request gets exactly one answer before the engines
			// close. The workers are still running, so blocking sends drain.
			for {
				select {
				case rq := <-b.reqs:
					b.enqueue(rq, &ready)
					continue
				default:
				}
				break
			}
			b.cutAll(&ready)
			if next != nil {
				b.dispatch <- next
			}
			for len(ready) > 0 {
				b.dispatch <- popEarliest(&ready)
			}
			close(b.dispatch)
			return
		}
	}
}

// enqueue routes one request into its bucket, creating (and LRU-evicting)
// as needed, and cuts the bucket when it fills. Either way the request is
// no longer approaching when it returns.
func (b *batcher) enqueue(rq *batchReq, ready *[]*batch) {
	defer b.approaching.Add(-1)
	b.mu.Lock()
	bkt := b.buckets[rq.sig]
	if bkt == nil {
		if !b.makeRoomLocked() {
			b.mu.Unlock()
			rq.resp <- batchResp{err: errNoBucket}
			return
		}
		shapes := make(map[string][]int, len(b.inputNames))
		for _, name := range b.inputNames {
			shapes[name] = rq.inputs[name].Shape()
		}
		bkt = b.newBucket(rq.sig, shapes)
		b.buckets[rq.sig] = bkt
	}
	bkt.pending = append(bkt.pending, rq)
	bkt.lastUsed = time.Now()
	var bt *batch
	if len(bkt.pending) >= b.maxBatch {
		bt = b.cutLocked(bkt, cutFull, bkt.lastUsed)
	}
	b.mu.Unlock()
	if bt != nil {
		*ready = append(*ready, bt)
	}
}

// makeRoomLocked ensures the bucket table has a free slot, evicting the
// least-recently-used idle bucket. Reports false when every bucket is busy
// or queued (the request then falls through).
func (b *batcher) makeRoomLocked() bool {
	if len(b.buckets) < b.maxBuckets {
		return true
	}
	var victim *bucket
	for _, bkt := range b.buckets {
		if bkt.busy > 0 || len(bkt.pending) > 0 {
			continue
		}
		if victim == nil || bkt.lastUsed.Before(victim.lastUsed) {
			victim = bkt
		}
	}
	if victim == nil {
		return false
	}
	delete(b.buckets, victim.sig)
	b.evictions.Add(1)
	if b.hooks.onEvict != nil {
		b.hooks.onEvict()
	}
	return true
}

// cutLocked turns the bucket's queue into one dispatchable batch.
func (b *batcher) cutLocked(bkt *bucket, reason string, now time.Time) *batch {
	reqs := bkt.pending
	bkt.pending = nil
	bkt.busy++
	b.outstanding++
	bt := &batch{bkt: bkt, reqs: reqs, reason: reason, cutAt: now}
	for i, rq := range reqs {
		if k := rq.edfKey(b.maxLatency); i == 0 || k.Before(bt.due) {
			bt.due = k
		}
	}
	return bt
}

// earliestDue scans buckets with queued requests for the soonest flush.
// Busy buckets are skipped: a partial queued behind its bucket's run keeps
// filling until the run's completion kicks the scheduler, so saturated
// traffic converges to full batches instead of a train of partials.
func (b *batcher) earliestDue() (time.Time, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var min time.Time
	found := false
	for _, bkt := range b.buckets {
		if bkt.busy > 0 {
			continue
		}
		for _, rq := range bkt.pending {
			d := rq.due(b.maxLatency)
			if !found || d.Before(min) {
				min, found = d, true
			}
		}
	}
	return min, found
}

// cutReady cuts the queue of every idle bucket with a due member and then,
// while no admitted request is on its way to a bucket, the idle queues a
// free dispatch worker can take now, oldest first: nothing could still
// join them, so waiting buys nothing. Full batches never wait here —
// enqueue cuts them the moment they fill, busy or not, so a saturated
// bucket still double-buffers: one batch stacking while the previous
// computes.
func (b *batcher) cutReady(ready *[]*batch, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, bkt := range b.buckets {
		if bkt.busy > 0 {
			continue
		}
		for _, rq := range bkt.pending {
			if !rq.due(b.maxLatency).After(now) {
				*ready = append(*ready, b.cutLocked(bkt, cutDue, now))
				break
			}
		}
	}
	for b.outstanding < dispatchWorkers && b.approaching.Load() == 0 {
		var oldest *bucket
		for _, bkt := range b.buckets {
			if bkt.busy == 0 && len(bkt.pending) > 0 &&
				(oldest == nil || bkt.pending[0].arrival.Before(oldest.pending[0].arrival)) {
				oldest = bkt
			}
		}
		if oldest == nil {
			return
		}
		*ready = append(*ready, b.cutLocked(oldest, cutIdle, now))
	}
}

// cutAll flushes every non-empty bucket (shutdown drain).
func (b *batcher) cutAll(ready *[]*batch) {
	now := time.Now()
	b.mu.Lock()
	for _, bkt := range b.buckets {
		if len(bkt.pending) > 0 {
			*ready = append(*ready, b.cutLocked(bkt, cutDrain, now))
		}
	}
	b.mu.Unlock()
}

// popEarliest removes and returns the ready batch with the earliest
// deadline (EDF among ready buckets).
func popEarliest(ready *[]*batch) *batch {
	s := *ready
	best := 0
	for i := 1; i < len(s); i++ {
		if s[i].due.Before(s[best].due) {
			best = i
		}
	}
	bt := s[best]
	s[best] = s[len(s)-1]
	*ready = s[:len(s)-1]
	return bt
}

// worker consumes dispatched batches until the scheduler closes the
// channel. Two workers double-buffer the engine: one stacks batch k+1
// while the other's batch k computes.
func (b *batcher) worker() {
	defer b.workers.Done()
	for bt := range b.dispatch {
		b.runBatch(bt)
	}
}

// runBatch serves one batch, then hands its bucket and worker slot back to
// the scheduler before answering any member: a caller's next request must
// find the bucket idle (cuttable, evictable) and the worker free, not still
// counted busy behind an answer the caller already holds.
func (b *batcher) runBatch(bt *batch) {
	if b.hooks.onFlush != nil {
		b.hooks.onFlush(bt)
	}
	if b.hooks.beforeRun != nil {
		b.hooks.beforeRun(bt)
	}
	resps, served := b.serveBatch(bt)
	bkt := bt.bkt
	b.mu.Lock()
	bkt.busy--
	b.outstanding--
	bkt.lastUsed = time.Now()
	if served > 0 {
		bkt.flushes++
		bkt.samples += uint64(served)
	}
	b.mu.Unlock()
	// Wake the scheduler: requests that queued behind this run may now be
	// overdue or idle, their bucket is eligible for a cut again, and a
	// worker is free.
	b.wake()
	for i, rq := range bt.reqs {
		rq.resp <- resps[i]
	}
}

// serveBatch runs one batch — stack, one run on the shared engine, split —
// and returns every member's answer in member order, with how many members
// the flush served (0 when none ran). Members whose caller already gave up
// are dropped before stacking; if none are left the engine isn't touched.
func (b *batcher) serveBatch(bt *batch) ([]batchResp, int) {
	resps := make([]batchResp, len(bt.reqs))
	live := make([]*batchReq, 0, len(bt.reqs))
	at := make([]int, 0, len(bt.reqs)) // live[j] is member at[j]
	for i, rq := range bt.reqs {
		if err := rq.ctx.Err(); err != nil {
			resps[i] = batchResp{err: fmt.Errorf("%w: %v", mnn.ErrCancelled, err)}
			continue
		}
		live = append(live, rq)
		at = append(at, i)
	}
	if len(live) == 0 {
		return resps, 0
	}
	ctx, cancel := runContext(live)
	out, err := b.shared.Infer(ctx, b.stack(bt.bkt, live))
	cancel()
	b.batchRuns.Add(1)
	var outs []map[string]*mnn.Tensor
	if err == nil {
		outs, err = splitOutputs(b.outputNames, out, len(live))
	}
	if err != nil {
		for _, i := range at {
			resps[i] = batchResp{err: err}
		}
		return resps, 0
	}
	for j, i := range at {
		resps[i] = batchResp{outputs: outs[j]}
	}
	return resps, len(live)
}

// runContext bounds the batched run: detached from any single caller (one
// caller's cancellation must not fail its batch-mates) but carrying the
// earliest effective deadline among the members, so a run nobody can use
// anymore is cancelled instead of finishing for ghosts.
func runContext(reqs []*batchReq) (context.Context, context.CancelFunc) {
	var min time.Time
	for _, rq := range reqs {
		if rq.deadline.IsZero() {
			continue
		}
		if min.IsZero() || rq.deadline.Before(min) {
			min = rq.deadline
		}
	}
	if min.IsZero() {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), min)
}

// stack copies the n live requests into one [n, perShape[1:]...] tensor
// per input.
func (b *batcher) stack(bkt *bucket, reqs []*batchReq) map[string]*mnn.Tensor {
	stacked := make(map[string]*mnn.Tensor, len(b.inputNames))
	for _, name := range b.inputNames {
		dst := tensor.New(append([]int{len(reqs)}, bkt.perShape[name][1:]...)...)
		per := bkt.perLen[name]
		for i, rq := range reqs {
			// A view over request i's slot; CopyFrom converts layout if the
			// caller handed us a non-NCHW tensor.
			slot := tensor.FromData(dst.Data()[i*per:(i+1)*per], bkt.perShape[name]...)
			slot.CopyFrom(rq.inputs[name])
		}
		stacked[name] = dst
	}
	return stacked
}

// splitOutputs cuts the batched outputs of n stacked requests back into n
// per-request maps, each output of shape [1, s[1:]...] where s, the batched
// shape, must lead with n; otherwise every member gets ErrBatchSplit.
// Each output tensor is layout-converted exactly once per flush — the
// conversion allocates a full batch-sized tensor, so doing it per request
// was the allocation hot spot the regression test pins.
func splitOutputs(names []string, out map[string]*mnn.Tensor, n int) ([]map[string]*mnn.Tensor, error) {
	res := make([]map[string]*mnn.Tensor, n)
	for i := range res {
		res[i] = make(map[string]*mnn.Tensor, len(names))
	}
	for _, name := range names {
		s := out[name].Shape()
		if len(s) == 0 || s[0] != n {
			return nil, fmt.Errorf("%w: output %q has batched shape %v, not %d requests along dim 0", ErrBatchSplit, name, s, n)
		}
		per := append([]int{1}, s[1:]...)
		perLen := tensor.NumElements(per)
		data := out[name].ToLayout(tensor.NCHW).Data()
		for i := 0; i < n; i++ {
			dst := tensor.New(per...)
			copy(dst.Data(), data[i*perLen:(i+1)*perLen])
			res[i][name] = dst
		}
	}
	return res, nil
}

// bucketStat is one bucket's scrape-time snapshot.
type bucketStat struct {
	sig       string
	depth     int           // requests queued now
	oldestAge time.Duration // age of the oldest queued request
	fill      float64       // cumulative: batched samples / (flushes × maxBatch)
}

// batcherStats snapshots the bucket table for /metrics.
type batcherStats struct {
	buckets   []bucketStat
	evictions int64
	runs      int64
}

func (b *batcher) stats() batcherStats {
	now := time.Now()
	b.mu.Lock()
	st := batcherStats{
		buckets:   make([]bucketStat, 0, len(b.buckets)),
		evictions: b.evictions.Load(),
		runs:      b.batchRuns.Load(),
	}
	for _, bkt := range b.buckets {
		bs := bucketStat{sig: bkt.sig, depth: len(bkt.pending)}
		if len(bkt.pending) > 0 {
			bs.oldestAge = now.Sub(bkt.pending[0].arrival)
		}
		if bkt.flushes > 0 {
			bs.fill = float64(bkt.samples) / (float64(bkt.flushes) * float64(b.maxBatch))
		}
		st.buckets = append(st.buckets, bs)
	}
	b.mu.Unlock()
	sort.Slice(st.buckets, func(i, j int) bool { return st.buckets[i].sig < st.buckets[j].sig })
	return st
}

// close stops accepting requests, lets the scheduler drain every queue
// through the workers, then closes the shared engine. The fallback engine
// belongs to the Model and is closed by it.
func (b *batcher) close() {
	close(b.quit)
	<-b.done // scheduler drained reqs, flushed queues, closed dispatch
	b.workers.Wait()
	b.shared.Close()
}
