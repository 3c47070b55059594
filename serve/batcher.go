package serve

import (
	"context"
	"errors"
	"fmt"
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

// DefaultMaxBuckets is the shape-bucket bound used when BatchConfig enables
// batching without choosing one.
const DefaultMaxBuckets = 4

// maxFailedSigs bounds the memo of shape signatures whose batch engine
// failed to open, so a hostile mix of unpreparable shapes cannot grow it
// without bound. Overflowing signatures just retry the open.
const maxFailedSigs = 64

// errNoBucket is the scheduler's internal "cannot give this request a
// bucket" answer (bucket table full of busy buckets, or a signature whose
// engine is known not to open). infer translates it into a fall-through to
// the unbatched engine; it never escapes to callers.
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
// signature into buckets, each holding a lazily opened engine prepared at
// batch size maxBatch for that bucket's shapes. A scheduler goroutine cuts
// an idle bucket's queue into a batch when it fills, when no admitted
// request is still on its way to a bucket and a dispatch worker is free
// (nothing could join the batch, so waiting buys nothing), or when its
// oldest request's window (bounded by the request's effective deadline)
// expires. It orders ready batches earliest-deadline-first and hands them
// to dispatchWorkers workers.
// Partial batches run on the bucket engine via pad-and-mask: unused slots
// stay zero and only live slots are split back out, which preserves the
// batched≡unbatched bitwise guarantee because every kernel is per-sample.
//
// The bucket of the model's declared input shapes (the primary bucket) is
// opened eagerly so load-time validation errors still surface at Load.
// Other buckets open on their first flush and are evicted least-recently-
// used when the table exceeds maxBuckets; requests that cannot get a
// bucket fall through to the unbatched engine.
//
// Dynamic mode: when the model's unbatched engine was opened with
// WithMaxInputShapes, one shared batch engine planned at
// [maxBatch, maxDims...] serves every bucket. Buckets keep their role as
// exact-shape queues (stacking only identical shapes preserves the
// batched≡unbatched bitwise guarantee per bucket) but own no engine: their
// lazy step is a batch-1 probe through the shared engine to learn output
// shapes, batches stack at their exact member count (no padding — the
// dynamic engine accepts any leading dim <= maxBatch), and eviction is pure
// bookkeeping that never closes the shared engine.
type batcher struct {
	fallback   *mnn.Engine // the model's unbatched engine (not owned)
	cfg        ModelConfig // source + options for opening bucket engines
	maxBatch   int
	maxLatency time.Duration
	maxBuckets int
	slo        time.Duration // admission SLO; bounds effective deadlines

	// dynamic mode (see type comment): shared is the one batch engine
	// (owned), dynMax the fallback's per-request planned maxima.
	dynamic bool
	dynMax  map[string][]int
	shared  *mnn.Engine

	inputNames  []string
	outputNames []string
	primary     *bucket

	hooks batcherHooks

	reqs     chan *batchReq
	dispatch chan *batch
	kick     chan struct{}
	quit     chan struct{}
	done     chan struct{}
	workers  sync.WaitGroup
	closers  sync.WaitGroup // async engine closes from evictions

	// mu guards the bucket table, the failed-signature memo, every
	// bucket's queue/usage fields and outstanding.
	mu      sync.Mutex
	buckets map[string]*bucket
	failed  map[string]error
	// outstanding counts batches cut but not yet finished, across buckets:
	// those running on a worker and those ready to hand to one.
	outstanding int

	// approaching counts the requests inside infer that have passed
	// admission but are not yet in a bucket: up from before the send on
	// reqs until the scheduler has queued (or refused) them or they give
	// up on the send. Requests waiting for admission are not counted: they
	// wait for a slot a queued request holds.
	approaching atomic.Int64

	batchRuns atomic.Int64 // bucket-engine invocations (tests, stats)
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
	// noteBytes reports ±deltas of dynamically opened bucket-engine bytes
	// (the primary bucket is counted by the model's load accounting).
	noteBytes func(delta int64)
	// onEvict observes one bucket eviction.
	onEvict func()
}

// bucket is one shape signature's queue plus its batch-prepared engine.
type bucket struct {
	sig     string
	primary bool

	perShape   map[string][]int
	perLen     map[string]int
	batchShape map[string][]int
	outShape   map[string][]int // per-request output shape (dim0 == 1)
	outLen     map[string]int

	// openMu serializes the lazy engine open (or, in dynamic mode, the
	// batch-1 output probe) across dispatch workers. Nothing that holds
	// batcher.mu may block on openMu: an engine open can take arbitrarily
	// long, and the scheduler's intake path lives under batcher.mu —
	// readers that only need "is the engine resident" use the resident
	// flag instead.
	openMu  sync.Mutex
	eng     *mnn.Engine
	bytes   int64
	openErr error
	// resident mirrors "this bucket is ready to serve batches" (engine
	// open, or probe done in dynamic mode) without requiring openMu.
	resident atomic.Bool

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

// newBatcher builds the scheduler and opens the primary bucket (the
// model's declared input shapes) eagerly, probing it once so output shapes
// are known to be splittable along N before any traffic arrives.
func newBatcher(cfg ModelConfig, fallback *mnn.Engine, hooks batcherHooks) (*batcher, error) {
	b := &batcher{
		fallback:   fallback,
		cfg:        cfg,
		maxBatch:   cfg.Batch.MaxBatch,
		maxLatency: cfg.Batch.MaxLatency,
		maxBuckets: cfg.Batch.Buckets,
		slo:        cfg.Admission.SLO,
		hooks:      hooks,
		inputNames: fallback.InputNames(),
		reqs:       make(chan *batchReq),
		dispatch:   make(chan *batch),
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		buckets:    make(map[string]*bucket),
		failed:     make(map[string]error),
	}
	if b.maxLatency <= 0 {
		b.maxLatency = DefaultMaxLatency
	}
	if b.maxBuckets <= 0 {
		b.maxBuckets = DefaultMaxBuckets
	}
	b.outputNames = fallback.OutputNames()
	shapes := make(map[string][]int, len(b.inputNames))
	for _, name := range b.inputNames {
		s := fallback.InputShape(name)
		if len(s) == 0 || s[0] != 1 {
			return nil, fmt.Errorf("input %q has shape %v: batching needs a leading batch dim of 1", name, s)
		}
		shapes[name] = s
	}
	if ds := fallback.DynamicShapes(); ds != nil {
		b.dynamic = true
		b.dynMax = ds
		if err := b.openShared(); err != nil {
			return nil, err
		}
	}
	b.primary = b.newBucket(signatureOf(b.inputNames, shapes), shapes)
	b.primary.primary = true
	if err := b.ensureEngine(b.primary); err != nil {
		if b.shared != nil {
			b.shared.Close()
		}
		return nil, err
	}
	b.buckets[b.primary.sig] = b.primary
	b.workers.Add(dispatchWorkers)
	for i := 0; i < dispatchWorkers; i++ {
		go b.worker()
	}
	go b.loop()
	return b, nil
}

// primaryBytes is the eagerly opened primary bucket engine's byte
// accounting (counted by the model's load, unlike dynamic buckets). In
// dynamic mode it is the shared engine — the only batch engine there is.
func (b *batcher) primaryBytes() int64 {
	if b.dynamic {
		return b.shared.MemoryBytes()
	}
	return b.primary.bytes
}

// openShared opens the one batch engine of dynamic mode, planned at
// [maxBatch, per-request maxima...], and probes it at the full batch shape
// so "outputs cannot split along dim 0" still fails at Load time. Its pool
// matches the dispatch workers: batches from different buckets run
// concurrently, just as two static bucket engines would.
func (b *batcher) openShared() error {
	shapes := make(map[string][]int, len(b.inputNames))
	for _, name := range b.inputNames {
		max := b.dynMax[name]
		if len(max) == 0 || max[0] != 1 {
			return fmt.Errorf("input %q has planned max shape %v: batching needs a leading batch dim of 1", name, max)
		}
		shapes[name] = append([]int{b.maxBatch}, max[1:]...)
	}
	eng, err := mnn.Open(b.cfg.Model, append(append([]mnn.Option(nil), b.cfg.Options...),
		mnn.WithMaxInputShapes(shapes), mnn.WithPoolSize(dispatchWorkers))...)
	if err != nil {
		return fmt.Errorf("opening shared dynamic batch-%d engine: %w", b.maxBatch, err)
	}
	probe := make(map[string]*mnn.Tensor, len(b.inputNames))
	for name, s := range shapes {
		probe[name] = tensor.New(s...)
	}
	out, err := eng.Infer(context.Background(), probe)
	if err != nil {
		eng.Close()
		return fmt.Errorf("probing shared dynamic batch-%d engine: %w", b.maxBatch, err)
	}
	for _, name := range b.outputNames {
		if s := out[name].Shape(); len(s) == 0 || s[0] != b.maxBatch {
			eng.Close()
			return fmt.Errorf("output %q has batched shape %v: cannot split %d requests along dim 0", name, s, b.maxBatch)
		}
	}
	b.shared = eng
	return nil
}

// engineFor resolves the engine a bucket's batches run on.
func (b *batcher) engineFor(bkt *bucket) *mnn.Engine {
	if b.dynamic {
		return b.shared
	}
	return bkt.eng
}

// newBucket builds the bookkeeping for one signature; the engine opens on
// first flush (ensureEngine).
func (b *batcher) newBucket(sig string, shapes map[string][]int) *bucket {
	bkt := &bucket{
		sig:        sig,
		perShape:   make(map[string][]int, len(b.inputNames)),
		perLen:     make(map[string]int, len(b.inputNames)),
		batchShape: make(map[string][]int, len(b.inputNames)),
		outShape:   make(map[string][]int, len(b.outputNames)),
		outLen:     make(map[string]int, len(b.outputNames)),
		lastUsed:   time.Now(),
	}
	for _, name := range b.inputNames {
		per := append([]int(nil), shapes[name]...)
		bkt.perShape[name] = per
		bkt.perLen[name] = tensor.NumElements(per)
		bkt.batchShape[name] = append([]int{b.maxBatch}, per[1:]...)
	}
	return bkt
}

// ensureEngine makes the bucket ready to serve batches. Static mode opens
// (once) the bucket's own batch engine and probes it with zeros to learn
// the output slots; dynamic mode only runs the batch-1 output probe through
// the shared engine. Serialized per bucket; a failure is sticky so every
// queued batch of the bucket falls back instead of re-paying the attempt.
func (b *batcher) ensureEngine(bkt *bucket) error {
	if b.dynamic {
		return b.probeDynamic(bkt)
	}
	bkt.openMu.Lock()
	defer bkt.openMu.Unlock()
	if bkt.eng != nil {
		return nil
	}
	if bkt.openErr != nil {
		return bkt.openErr
	}
	shapes := make(map[string][]int, len(bkt.batchShape))
	for name, s := range bkt.batchShape {
		shapes[name] = s
	}
	eng, err := mnn.Open(b.cfg.Model, append(append([]mnn.Option(nil), b.cfg.Options...),
		mnn.WithInputShapes(shapes), mnn.WithPoolSize(1))...)
	if err != nil {
		bkt.openErr = fmt.Errorf("opening batch-%d engine for bucket %s: %w", b.maxBatch, bkt.sig, err)
		return bkt.openErr
	}
	probe := make(map[string]*mnn.Tensor, len(b.inputNames))
	for _, name := range b.inputNames {
		probe[name] = tensor.New(bkt.batchShape[name]...)
	}
	out, err := eng.Infer(context.Background(), probe)
	if err != nil {
		eng.Close()
		bkt.openErr = fmt.Errorf("probing batch-%d engine for bucket %s: %w", b.maxBatch, bkt.sig, err)
		return bkt.openErr
	}
	for _, name := range b.outputNames {
		s := out[name].Shape()
		if len(s) == 0 || s[0] != b.maxBatch {
			eng.Close()
			bkt.openErr = fmt.Errorf("output %q has batched shape %v: cannot split %d requests along dim 0", name, s, b.maxBatch)
			return bkt.openErr
		}
		per := append([]int{1}, s[1:]...)
		bkt.outShape[name] = per
		bkt.outLen[name] = tensor.NumElements(per)
	}
	bkt.eng = eng
	bkt.bytes = eng.MemoryBytes()
	bkt.resident.Store(true)
	if !bkt.primary && b.hooks.noteBytes != nil {
		b.hooks.noteBytes(bkt.bytes)
	}
	return nil
}

// probeDynamic learns the bucket's per-request output shapes with one
// batch-1 zero run through the shared engine. The shared engine validates
// the shape against its plan, so an out-of-plan signature that slipped past
// the intake check fails here (sticky) and its requests fall back.
func (b *batcher) probeDynamic(bkt *bucket) error {
	bkt.openMu.Lock()
	defer bkt.openMu.Unlock()
	if bkt.resident.Load() {
		return nil
	}
	if bkt.openErr != nil {
		return bkt.openErr
	}
	probe := make(map[string]*mnn.Tensor, len(b.inputNames))
	for _, name := range b.inputNames {
		probe[name] = tensor.New(bkt.perShape[name]...)
	}
	out, err := b.shared.Infer(context.Background(), probe)
	if err != nil {
		bkt.openErr = fmt.Errorf("probing bucket %s on the shared dynamic engine: %w", bkt.sig, err)
		return bkt.openErr
	}
	for _, name := range b.outputNames {
		s := out[name].Shape()
		if len(s) == 0 || s[0] != 1 {
			bkt.openErr = fmt.Errorf("output %q has shape %v at batch 1: cannot stack along dim 0", name, s)
			return bkt.openErr
		}
		bkt.outShape[name] = append([]int(nil), s...)
		bkt.outLen[name] = tensor.NumElements(s)
	}
	bkt.resident.Store(true)
	return nil
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
// request cannot occupy one slot of a stacked batch at all (wrong input
// set, or a leading batch dim that isn't 1) — those fall through to the
// unbatched engine, which reports the precise validation error.
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
		s := t.Shape()
		if len(s) == 0 || s[0] != 1 {
			return "", false
		}
		if b.dynamic {
			// Out-of-plan shapes fall through to the unbatched engine,
			// which reports the typed ErrShapeOutOfPlan — never waste a
			// bucket (and a sticky probe failure) on them.
			max := b.dynMax[name]
			if len(s) != len(max) {
				return "", false
			}
			for i, d := range s {
				if d < 1 || d > max[i] {
					return "", false
				}
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
	b.mu.Lock()
	_, bad := b.failed[sig]
	b.mu.Unlock()
	if bad {
		return b.fallback.Infer(ctx, inputs)
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
		if _, bad := b.failed[rq.sig]; bad || !b.makeRoomLocked() {
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
// least-recently-used idle non-primary bucket. Reports false when every
// bucket is busy or primary (the request then falls through).
func (b *batcher) makeRoomLocked() bool {
	if len(b.buckets) < b.maxBuckets {
		return true
	}
	var victim *bucket
	for _, bkt := range b.buckets {
		if bkt.primary || bkt.busy > 0 || len(bkt.pending) > 0 {
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
	if eng, bytes := victim.eng, victim.bytes; eng != nil {
		victim.eng = nil
		// Closing drains the engine's session pool; do it off the scheduler.
		b.closers.Add(1)
		go func() {
			defer b.closers.Done()
			eng.Close()
			if b.hooks.noteBytes != nil && bytes != 0 {
				b.hooks.noteBytes(-bytes)
			}
		}()
	}
	return len(b.buckets) < b.maxBuckets
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

// serveBatch runs one batch — lazy engine open, stack, one batched run,
// split — and returns every member's answer in member order, with how many
// members the flush served (0 when none ran). Members whose caller already
// gave up are dropped before stacking; if none are left the engine isn't
// touched at all.
func (b *batcher) serveBatch(bt *batch) ([]batchResp, int) {
	bkt := bt.bkt
	resps := make([]batchResp, len(bt.reqs))
	if err := b.ensureEngine(bkt); err != nil {
		b.failBucket(bkt, err)
		// Serve the stranded members unbatched, each under its own context.
		for i, rq := range bt.reqs {
			out, ferr := b.fallback.Infer(rq.ctx, rq.inputs)
			resps[i] = batchResp{outputs: out, err: ferr}
		}
		return resps, 0
	}
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
	// Partial primary-bucket batches skip pad-and-mask: the unbatched
	// engine is prepared at exactly this shape and bitwise-identical, so
	// serving n members at cost n beats padding to cost maxBatch — the
	// kernels are per-sample, padded slots are pure wasted compute. Lazy
	// static buckets have no unbatched twin, so they always pad. Dynamic
	// mode never pads at all (exact-n stacking costs n), so every batch —
	// partial or full, primary or not — takes the stacked path below.
	if !b.dynamic && bkt.primary && len(live) < b.maxBatch {
		var wg sync.WaitGroup
		for j, rq := range live {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := b.fallback.Infer(rq.ctx, rq.inputs)
				resps[at[j]] = batchResp{outputs: out, err: err}
			}()
		}
		wg.Wait()
		return resps, len(live)
	}
	stacked := b.stack(bkt, live)
	ctx, cancel := runContext(live)
	out, err := b.engineFor(bkt).Infer(ctx, stacked)
	cancel()
	b.batchRuns.Add(1)
	if err != nil {
		for _, i := range at {
			resps[i] = batchResp{err: err}
		}
		return resps, 0
	}
	outs := splitOutputs(b.outputNames, bkt, out, len(live))
	for j, i := range at {
		resps[i] = batchResp{outputs: outs[j]}
	}
	return resps, len(live)
}

// failBucket retires a bucket whose engine cannot open: future requests
// with its signature fall through immediately instead of queueing.
func (b *batcher) failBucket(bkt *bucket, err error) {
	b.mu.Lock()
	if b.buckets[bkt.sig] == bkt {
		delete(b.buckets, bkt.sig)
	}
	if len(b.failed) < maxFailedSigs {
		b.failed[bkt.sig] = err
	}
	b.mu.Unlock()
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

// stack copies the live requests into slots 0..n-1 of the bucket's batch
// tensors. In static mode the batch tensor is always maxBatch wide and
// slots past n stay zero — the pad half of pad-and-mask; the mask half is
// splitOutputs reading only the live slots back out. In dynamic mode the
// batch tensor is exactly n wide: the shared engine re-derives shapes for
// the actual member count and no padded slot ever computes.
func (b *batcher) stack(bkt *bucket, reqs []*batchReq) map[string]*mnn.Tensor {
	stacked := make(map[string]*mnn.Tensor, len(b.inputNames))
	for _, name := range b.inputNames {
		shape := bkt.batchShape[name]
		if b.dynamic {
			shape = append([]int{len(reqs)}, shape[1:]...)
		}
		dst := tensor.New(shape...)
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

// splitOutputs cuts the batched outputs back into n per-request maps.
// Each output tensor is layout-converted exactly once per flush — the
// conversion allocates a full batch-sized tensor, so doing it per request
// was the allocation hot spot the regression test pins.
func splitOutputs(names []string, bkt *bucket, out map[string]*mnn.Tensor, n int) []map[string]*mnn.Tensor {
	res := make([]map[string]*mnn.Tensor, n)
	for i := range res {
		res[i] = make(map[string]*mnn.Tensor, len(names))
	}
	for _, name := range names {
		src := out[name].ToLayout(tensor.NCHW)
		data := src.Data()
		per := bkt.outLen[name]
		for i := 0; i < n; i++ {
			dst := tensor.New(bkt.outShape[name]...)
			copy(dst.Data(), data[i*per:(i+1)*per])
			res[i][name] = dst
		}
	}
	return res
}

// bucketStat is one bucket's scrape-time snapshot.
type bucketStat struct {
	sig       string
	depth     int           // requests queued now
	oldestAge time.Duration // age of the oldest queued request
	fill      float64       // cumulative: batched samples / (flushes × maxBatch)
	resident  bool          // engine open
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
		// The resident flag, not openMu: a dispatch worker can hold openMu
		// across an arbitrarily slow engine open, and blocking here while
		// holding b.mu would stall the scheduler's whole intake path for
		// the duration (the metrics-scrape-freezes-serving bug).
		bs.resident = bkt.resident.Load()
		st.buckets = append(st.buckets, bs)
	}
	b.mu.Unlock()
	sort.Slice(st.buckets, func(i, j int) bool { return st.buckets[i].sig < st.buckets[j].sig })
	return st
}

// close stops accepting requests, lets the scheduler drain every queue
// through the workers, then closes the bucket engines. The fallback engine
// belongs to the Model and is closed by it.
func (b *batcher) close() {
	close(b.quit)
	<-b.done // scheduler drained reqs, flushed queues, closed dispatch
	b.workers.Wait()
	b.closers.Wait()
	b.mu.Lock()
	bkts := make([]*bucket, 0, len(b.buckets))
	for _, bkt := range b.buckets {
		bkts = append(bkts, bkt)
	}
	b.buckets = make(map[string]*bucket)
	b.mu.Unlock()
	for _, bkt := range bkts {
		if bkt.eng == nil {
			continue
		}
		bkt.eng.Close()
		if !bkt.primary && b.hooks.noteBytes != nil && bkt.bytes != 0 {
			b.hooks.noteBytes(-bkt.bytes)
		}
	}
	if b.shared != nil {
		b.shared.Close()
	}
}
