package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnn"
	"mnn/internal/leakcheck"
	"mnn/internal/tensor"
)

// holdCuts counts one phantom request as approaching the batcher, so idle
// buckets keep their queues until they fill or fall due. release takes it
// out the way a request that leaves without queueing does; it is
// idempotent.
func holdCuts(b *batcher) (release func()) {
	b.approaching.Add(1)
	return sync.OnceFunc(b.depart)
}

// batcherOf returns the model's resident batcher.
func batcherOf(t *testing.T, m *Model) *batcher {
	t.Helper()
	m.lifeMu.Lock()
	b := m.batcher
	m.lifeMu.Unlock()
	if b == nil {
		t.Fatal("model has no resident batcher")
	}
	return b
}

// waitQueued polls until the bucket with signature sig holds n requests.
func waitQueued(t *testing.T, b *batcher, sig string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		got := 0
		if bkt := b.buckets[sig]; bkt != nil {
			got = len(bkt.pending)
		}
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bucket %s holds %d queued requests, want %d", sig, got, n)
		}
	}
}

// bucketServed reads how many batches a bucket has served and how many
// requests they carried. A batch's counts move before any member is
// answered, so once every caller has returned they are final.
func bucketServed(t *testing.T, b *batcher, sig string) (flushes, samples uint64) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if bkt := b.buckets[sig]; bkt != nil {
		return bkt.flushes, bkt.samples
	}
	return 0, 0
}

// newTinyBatcher opens the tiny graph's unbatched engine and a batcher in
// front of it; both close when the test ends.
func newTinyBatcher(t *testing.T, cfg BatchConfig, hooks batcherHooks) *batcher {
	t.Helper()
	g := tinyGraph(t)
	eng, err := mnn.Open(g, mnn.WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	b, err := newBatcher(ModelConfig{Model: g, Batch: cfg}, eng, hooks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close) // runs before eng.Close
	return b
}

const tinySig = "data=1x3x16x16"

func tinyInput(seed uint64) map[string]*mnn.Tensor {
	return map[string]*mnn.Tensor{"data": randomInput(seed, []int{1, 3, 16, 16})}
}

// TestBatcherLoneRequestSkipsWindow: with nothing else on its way, a lone
// request is cut at once. An hour-long window caps the wait for requests
// already coming; it is not a toll every lone request pays.
func TestBatcherLoneRequestSkipsWindow(t *testing.T) {
	flushes := make(chan *batch, 4)
	b := newTinyBatcher(t, BatchConfig{MaxBatch: 8, MaxLatency: time.Hour},
		batcherHooks{onFlush: func(bt *batch) { flushes <- bt }})
	done := make(chan error, 1)
	go func() {
		_, err := b.infer(context.Background(), tinyInput(3))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a lone request is still waiting out its hour-long window after 1 s")
	}
	if bt := <-flushes; bt.reason != cutIdle || len(bt.reqs) != 1 {
		t.Fatalf("lone request cut %q at width %d, want %q at 1", bt.reason, len(bt.reqs), cutIdle)
	}
}

// TestBatcherApproachingRequestJoinsBatch: while a request is on its way,
// a queued one waits for it; once nothing approaches, both leave in one
// batch of 2, although the bucket is not full and its window is an hour.
func TestBatcherApproachingRequestJoinsBatch(t *testing.T) {
	flushes := make(chan *batch, 4)
	b := newTinyBatcher(t, BatchConfig{MaxBatch: 4, MaxLatency: time.Hour},
		batcherHooks{onFlush: func(bt *batch) { flushes <- bt }})
	release := holdCuts(b)
	defer release()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.infer(context.Background(), tinyInput(uint64(i+1))); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
		waitQueued(t, b, tinySig, i+1)
	}
	select {
	case bt := <-flushes:
		t.Fatalf("cut %q at width %d while a request was still approaching", bt.reason, len(bt.reqs))
	default:
	}
	release()
	wg.Wait()
	if bt := <-flushes; bt.reason != cutIdle || len(bt.reqs) != 2 {
		t.Fatalf("cut %q at width %d, want %q at 2", bt.reason, len(bt.reqs), cutIdle)
	}
}

// TestBatcherWindowCapsApproachingWait: the window still caps the wait for
// a request that never arrives — the queued one is cut as due.
func TestBatcherWindowCapsApproachingWait(t *testing.T) {
	const window = 20 * time.Millisecond
	flushes := make(chan *batch, 4)
	b := newTinyBatcher(t, BatchConfig{MaxBatch: 4, MaxLatency: window},
		batcherHooks{onFlush: func(bt *batch) { flushes <- bt }})
	defer holdCuts(b)()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := b.infer(context.Background(), tinyInput(5))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("still queued after 10 s behind a request that never arrives (window %v)", window)
	}
	if waited := time.Since(start); waited < window {
		t.Fatalf("answered after %v, before its %v window ran out", waited, window)
	}
	if bt := <-flushes; bt.reason != cutDue || len(bt.reqs) != 1 {
		t.Fatalf("cut %q at width %d, want %q at 1", bt.reason, len(bt.reqs), cutDue)
	}
}

// TestBatcherHeldRunFormsFullBatches: a bucket whose run is in flight keeps
// filling, so 8 callers behind a held run leave in two full batches of 4 —
// saturated traffic still forms full batches under the idle rule.
func TestBatcherHeldRunFormsFullBatches(t *testing.T) {
	flushes := make(chan *batch, 16)
	held, unblock := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(unblock) })
	defer release()
	var holding atomic.Bool
	b := newTinyBatcher(t, BatchConfig{MaxBatch: 4, MaxLatency: time.Hour}, batcherHooks{
		onFlush: func(bt *batch) { flushes <- bt },
		beforeRun: func(*batch) {
			if holding.CompareAndSwap(false, true) {
				close(held)
				<-unblock
			}
		},
	})
	var wg sync.WaitGroup
	call := func(seed uint64) {
		defer wg.Done()
		if _, err := b.infer(context.Background(), tinyInput(seed)); err != nil {
			t.Errorf("request %d: %v", seed, err)
		}
	}
	wg.Add(1)
	go call(100)
	<-held
	if bt := <-flushes; bt.reason != cutIdle || len(bt.reqs) != 1 {
		t.Fatalf("held run cut %q at width %d, want %q at 1", bt.reason, len(bt.reqs), cutIdle)
	}
	const callers = 8
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go call(uint64(i + 1))
	}
	timeout := time.After(30 * time.Second)
	for n := 0; n < callers; {
		select {
		case bt := <-flushes:
			if bt.reason != cutFull || len(bt.reqs) != 4 {
				t.Fatalf("behind a held run: cut %q at width %d, want %q at 4", bt.reason, len(bt.reqs), cutFull)
			}
			n += len(bt.reqs)
		case <-timeout:
			t.Fatalf("only %d of %d callers cut after 30 s", n, callers)
		}
	}
	release()
	wg.Wait()
}

// TestBatcherEDFTakesFreedSlot: cut batches take a freed run slot earliest
// deadline first, not in the order they were cut. Two held lone runs fill
// both slots; a full batch due in 2 h is cut, then one due in 1 h; the
// first slot to free goes to the 1 h batch.
func TestBatcherEDFTakesFreedSlot(t *testing.T) {
	g := tinyGraph(t)
	opts := []mnn.Option{mnn.WithPoolSize(2), mnn.WithMaxInputShapes(map[string][]int{"data": {1, 3, 16, 16}})}
	eng, err := mnn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	runs := make(chan *batch, 8)
	hold := make(chan struct{})
	var started atomic.Int64
	// The window is a minute and every deadline an hour or more away, so
	// due() never pulls a cut forward.
	b, err := newBatcher(ModelConfig{
		Model: g, Options: opts,
		Batch: BatchConfig{MaxBatch: 2, MaxLatency: time.Minute},
	}, eng, batcherHooks{beforeRun: func(bt *batch) {
		runs <- bt
		if started.Add(1) <= 2 {
			<-hold
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(hold)
	send := func(side int, within time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), within)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			in := map[string]*mnn.Tensor{"data": randomInput(uint64(side), []int{1, 3, side, side})}
			if _, err := b.infer(ctx, in); err != nil {
				t.Errorf("%d×%d request: %v", side, side, err)
			}
		}()
	}
	readyLen := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			b.mu.Lock()
			got := len(b.ready)
			b.mu.Unlock()
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d batches wait for a run slot, want %d", got, n)
			}
		}
	}
	for _, side := range []int{16, 8} {
		send(side, 3*time.Hour)
		if bt := <-runs; len(bt.reqs) != 1 {
			t.Fatalf("lone %d×%d run holds %d requests", side, side, len(bt.reqs))
		}
	}
	for i := 0; i < 2; i++ {
		send(12, 2*time.Hour)
	}
	readyLen(1)
	for i := 0; i < 2; i++ {
		send(14, time.Hour)
	}
	readyLen(2)
	hold <- struct{}{}
	if bt := <-runs; bt.bkt.sig != "data=1x3x14x14" {
		t.Fatalf("the freed slot ran %s, want the earlier-deadline data=1x3x14x14", bt.bkt.sig)
	}
}

// TestBatcherApproachingSettlesToZero hammers every way into and out of
// infer — served, cancelled before queueing, refused a bucket (two shapes
// share a one-bucket table), unstackable (falls through before queueing),
// and the shutdown drain — and checks that approaching and outstanding
// return to 0. A leaked count would silently put the timer back on every
// request.
func TestBatcherApproachingSettlesToZero(t *testing.T) {
	leakcheck.Check(t)
	g := tinyGraph(t)
	opts := []mnn.Option{mnn.WithPoolSize(2), mnn.WithMaxInputShapes(map[string][]int{"data": {1, 3, 16, 16}})}
	eng, err := mnn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	b, err := newBatcher(ModelConfig{
		Model: g, Options: opts,
		Batch: BatchConfig{MaxBatch: 4, MaxLatency: 200 * time.Microsecond, Buckets: 1},
	}, eng, batcherHooks{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	kinds := []struct {
		ctx  context.Context
		in   *mnn.Tensor
		want error // nil: must succeed
	}{
		{context.Background(), randomInput(1, []int{1, 3, 16, 16}), nil},
		{cancelled, randomInput(2, []int{1, 3, 16, 16}), mnn.ErrCancelled},
		{context.Background(), randomInput(3, []int{1, 3, 12, 12}), nil},
		{context.Background(), tensor.New(2, 3, 16, 16), mnn.ErrShapeOutOfPlan},
	}
	var calls [4]atomic.Int64 // per kind
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := kinds[i%len(kinds)]
			for {
				_, err := b.infer(k.ctx, map[string]*mnn.Tensor{"data": k.in})
				if (k.want == nil && err != nil) || (k.want != nil && !errors.Is(err, k.want)) {
					t.Errorf("caller %d: %v, want %v", i, err, k.want)
					return
				}
				calls[i%len(kinds)].Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	busy := func() bool {
		for i := range calls {
			if calls[i].Load() < 50 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !busy() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	b.close() // under live traffic: drains queued requests, later ones fall through
	close(stop)
	wg.Wait()
	if n := b.approaching.Load(); n != 0 {
		t.Fatalf("approaching = %d after every caller returned, want 0", n)
	}
	if b.outstanding != 0 {
		t.Fatalf("outstanding = %d after the drain, want 0", b.outstanding)
	}
}

// TestBatchWaitAndCutMetrics scrapes mnn_batch_cuts_total and
// mnn_batch_wait_seconds after one cut of each deterministic kind: idle (a
// lone request), full (two requests behind a held cut) and drain (a queued
// request when the model unloads).
func TestBatchWaitAndCutMetrics(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if err := reg.Load("tiny", ModelConfig{
		Model: tinyGraph(t),
		Batch: BatchConfig{MaxBatch: 2, MaxLatency: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)
	m, _ := reg.Get("tiny")
	b := batcherOf(t, m)
	infer := func(seed uint64) error {
		_, err := m.Infer(context.Background(), tinyInput(seed))
		return err
	}

	if err := infer(1); err != nil {
		t.Fatal(err)
	}
	release := holdCuts(b)
	defer release()
	errs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func(i int) { errs <- infer(uint64(i + 2)) }(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	go func() { errs <- infer(4) }()
	waitQueued(t, b, tinySig, 1)
	if err := reg.Unload("tiny"); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("request drained by the unload: %v", err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(blob)
	for _, want := range []string{
		`mnn_batch_cuts_total{model="tiny:1",reason="idle"} 1`,
		`mnn_batch_cuts_total{model="tiny:1",reason="full"} 1`,
		`mnn_batch_cuts_total{model="tiny:1",reason="due"} 0`,
		`mnn_batch_cuts_total{model="tiny:1",reason="drain"} 1`,
		`mnn_batch_wait_seconds_count{model="tiny:1"} 4`,
		`mnn_batch_wait_seconds_bucket{model="tiny:1",le="+Inf"} 4`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
