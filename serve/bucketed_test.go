package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnn"
	"mnn/internal/tensor"
)

// TestBucketedMixedShapeBitwise is the mixed-shape extension of the serve
// bitwise e2e (run explicitly by the CI serve -race job): three input
// shapes hit one batching model concurrently over HTTP, each shape is
// served by its own bucket's batch engine, and every response is bitwise
// identical to an unbatched engine prepared at that shape.
func TestBucketedMixedShapeBitwise(t *testing.T) {
	shapes := [][]int{{1, 3, 16, 16}, {1, 3, 12, 12}, {1, 3, 20, 20}}
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("tiny", ModelConfig{
		Model:   tinyGraph(t),
		Options: []mnn.Option{mnn.WithPoolSize(2)},
		Batch:   BatchConfig{MaxBatch: 4, MaxLatency: 5 * time.Millisecond, Buckets: len(shapes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)

	const perShape = 8
	type job struct {
		in   *mnn.Tensor
		want map[string]*mnn.Tensor
		name string
	}
	var jobs []job
	for si, shape := range shapes {
		ref, err := mnn.Open(tinyGraph(t), mnn.WithInputShapes(map[string][]int{"data": shape}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perShape; i++ {
			in := randomInput(uint64(100*si+i+1), shape)
			want, err := ref.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
			if err != nil {
				ref.Close()
				t.Fatal(err)
			}
			jobs = append(jobs, job{in: in, want: want, name: fmt.Sprintf("shape %v req %d", shape, i)})
		}
		ref.Close()
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			got, code, blob, err := tryInferOverHTTP(base, "tiny", j.in)
			if err != nil {
				t.Errorf("%s: %v", j.name, err)
				return
			}
			if code != http.StatusOK {
				t.Errorf("%s: HTTP %d: %s", j.name, code, blob)
				return
			}
			assertIdentical(t, j.name, got, j.want)
		}(j)
	}
	wg.Wait()

	// At least one real batched run happened, and the scrape shows the
	// per-bucket series with every shape's bucket tracked.
	m, _ := reg.Get("tiny")
	st, ok := m.batcherStats()
	if !ok {
		t.Fatal("no batcher stats on a batching model")
	}
	if st.runs == 0 {
		t.Fatal("no batched runs despite concurrent same-shape traffic")
	}
	if len(st.buckets) != len(shapes) {
		t.Fatalf("tracking %d buckets, want %d: %+v", len(st.buckets), len(shapes), st.buckets)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(blob)
	for _, want := range []string{
		`mnn_batch_buckets{model="tiny:1"} 3`,
		`mnn_batch_bucket_depth{model="tiny:1",bucket="data=1x3x12x12"}`,
		`mnn_batch_bucket_fill_ratio{model="tiny:1",bucket="data=1x3x20x20"}`,
		`mnn_batch_bucket_evictions_total{model="tiny:1"} 0`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestBucketedPartialPadMask: a partial batch (3 requests, maxBatch 8) in
// a lazy bucket — which has no unbatched engine at its shape — runs on
// the bucket's batch engine via pad-and-mask: one batched run carrying all
// three requests, bitwise identical to unbatched inference at that shape.
func TestBucketedPartialPadMask(t *testing.T) {
	shape := []int{1, 3, 12, 12}
	const sig = "data=1x3x12x12"
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("tiny", ModelConfig{
		Model: tinyGraph(t),
		Batch: BatchConfig{MaxBatch: 8, MaxLatency: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("tiny")
	b := batcherOf(t, m)
	ref, err := mnn.Open(tinyGraph(t), mnn.WithInputShapes(map[string][]int{"data": shape}))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	const n = 3
	inputs := make([]*mnn.Tensor, n)
	want := make([]map[string]*mnn.Tensor, n)
	for i := range inputs {
		inputs[i] = randomInput(uint64(i+30), shape)
		w, err := ref.Infer(context.Background(), map[string]*mnn.Tensor{"data": inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	// The three queue behind a phantom approaching request and leave
	// together once it departs.
	release := holdCuts(b)
	defer release()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": inputs[i]})
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			assertIdentical(t, fmt.Sprintf("padded req %d", i), got, want[i])
		}(i)
	}
	waitQueued(t, b, sig, n)
	release()
	wg.Wait()

	if runs := b.batchRuns.Load(); runs != 1 {
		t.Fatalf("%d runs on the bucket engine, want 1 padded run", runs)
	}
	if flushes, samples := bucketServed(t, b, sig); flushes != 1 || samples != n {
		t.Fatalf("bucket served %d samples in %d batches, want %d in 1", samples, flushes, n)
	}
}

// TestBucketLRUEviction: with the bucket table bounded at 2, a third shape
// evicts the least-recently-used idle bucket instead of leaking engines,
// every shape still serves bitwise-correct results, and closing the
// registry returns the resident-byte accounting to zero (dynamic bucket
// engines included).
func TestBucketLRUEviction(t *testing.T) {
	reg := NewRegistry()
	err := reg.Load("tiny", ModelConfig{
		Model: tinyGraph(t),
		Batch: BatchConfig{MaxBatch: 2, MaxLatency: time.Millisecond, Buckets: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("tiny")
	for i, shape := range [][]int{{1, 3, 16, 16}, {1, 3, 12, 12}, {1, 3, 20, 20}, {1, 3, 10, 10}} {
		in := randomInput(uint64(i+60), shape)
		ref, err := mnn.Open(tinyGraph(t), mnn.WithInputShapes(map[string][]int{"data": shape}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		assertIdentical(t, fmt.Sprintf("shape %v", shape), got, want)
	}
	st, _ := m.batcherStats()
	if len(st.buckets) > 2 {
		t.Fatalf("bucket table grew to %d, want <= 2", len(st.buckets))
	}
	if st.evictions < 1 {
		t.Fatal("no bucket evictions despite 4 shapes against a bound of 2")
	}
	reg.Close()
	if got := reg.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes %d after Close, want 0 (dynamic bucket engines leaked from the accounting)", got)
	}
}

// TestBucketsOneFallThrough: Buckets=1 confines batching to the model's
// declared input shape — the pre-bucketing behaviour where every other
// shape falls through to the unbatched engine's precise validation error.
func TestBucketsOneFallThrough(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("tiny", ModelConfig{
		Model: tinyGraph(t),
		Batch: BatchConfig{MaxBatch: 4, MaxLatency: time.Millisecond, Buckets: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("tiny")
	if _, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": tensor.New(1, 3, 8, 8)}); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("odd shape with buckets=1: %v, want ErrInputShape", err)
	}
	// The declared shape still batches.
	got, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": randomInput(5, []int{1, 3, 16, 16})})
	if err != nil || len(got) == 0 {
		t.Fatalf("declared shape: %v", err)
	}
}

// TestBatcherQueuedContextCancelled is the context-propagation regression:
// a caller that gives up while its request is queued must get ErrCancelled
// and must NOT burn an engine run — the old partial-flush path ran the
// fallback under context.Background() for exactly such ghosts.
func TestBatcherQueuedContextCancelled(t *testing.T) {
	g := tinyGraph(t)
	eng, err := mnn.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	b, err := newBatcher(ModelConfig{
		Model: g,
		Batch: BatchConfig{MaxBatch: 8, MaxLatency: time.Hour},
	}, eng, batcherHooks{})
	if err != nil {
		t.Fatal(err)
	}
	// A phantom approaching request keeps the queue from being cut idle;
	// the hour window keeps it from falling due.
	defer holdCuts(b)()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := b.infer(ctx, map[string]*mnn.Tensor{"data": randomInput(7, []int{1, 3, 16, 16})})
		errCh <- err
	}()
	waitQueued(t, b, tinySig, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, mnn.ErrCancelled) {
		t.Fatalf("queued-then-cancelled request: %v, want ErrCancelled", err)
	}
	// close flushes the queue through the workers; the dead member must be
	// dropped at stack time, not run for a caller that's gone.
	b.close()
	if runs := b.batchRuns.Load(); runs != 0 {
		t.Fatalf("batched engine ran %d times for a batch whose only member had cancelled", runs)
	}
}

// TestRunContextMinDeadline pins the second half of the context bugfix:
// the batched run's context carries the earliest effective deadline among
// the batch members (and no deadline when none of them have one).
func TestRunContextMinDeadline(t *testing.T) {
	t1 := time.Now().Add(time.Hour)
	t2 := t1.Add(-30 * time.Minute)
	ctx, cancel := runContext([]*batchReq{{}, {deadline: t1}, {deadline: t2}})
	defer cancel()
	d, ok := ctx.Deadline()
	if !ok || !d.Equal(t2) {
		t.Fatalf("run deadline %v (ok=%v), want %v", d, ok, t2)
	}
	ctx2, cancel2 := runContext([]*batchReq{{}, {}})
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("run context has a deadline although no member does")
	}
}

// TestSplitOutputsSingleConversion is the allocs regression for the split
// path: the batched output tensor is layout-converted once per flush, not
// once per request. With per-request conversion, splitting an 8-deep batch
// allocates ~8 extra batch-sized tensors; the byte bound below sits 2×
// above the hoisted cost and 2× below the regressed one.
func TestSplitOutputsSingleConversion(t *testing.T) {
	const n = 8
	outShape := []int{n, 64, 8, 8}
	perShape := []int{1, 64, 8, 8}
	perLen := tensor.NumElements(perShape)
	bkt := &bucket{
		outShape: map[string][]int{"prob": perShape},
		outLen:   map[string]int{"prob": perLen},
	}
	src := tensor.NewWithLayout(tensor.NC4HW4, outShape...)
	out := map[string]*mnn.Tensor{"prob": src}
	names := []string{"prob"}

	const iters = 64
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		res := splitOutputs(names, bkt, out, n)
		if len(res) != n {
			t.Fatalf("split produced %d request outputs, want %d", len(res), n)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / iters

	batchBytes := uint64(tensor.NumElements(outShape)) * 4
	// Hoisted: one conversion (~batchBytes) + n per-request tensors
	// (~batchBytes total) ≈ 2×batchBytes. Regressed: n conversions ≈
	// (n+1)×batchBytes.
	if limit := 4 * batchBytes; perOp > limit {
		t.Fatalf("splitOutputs allocates %d B/op, want <= %d (layout conversion back inside the per-request loop?)", perOp, limit)
	}
}

// TestBatcherShutdownRace: requests racing close() must each get exactly
// one response — a request that wins the submit immediately before the
// quit channel closes is drained and answered, later ones fall through to
// the unbatched engine — and close() itself returns. Run under -race in
// CI; a double response would deadlock a dispatch worker and hang the test.
func TestBatcherShutdownRace(t *testing.T) {
	g := tinyGraph(t)
	eng, err := mnn.Open(g, mnn.WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBatcher(ModelConfig{
		Model: g,
		Batch: BatchConfig{MaxBatch: 4, MaxLatency: 200 * time.Microsecond, Buckets: 3},
	}, eng, batcherHooks{})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	shapes := [][]int{{1, 3, 16, 16}, {1, 3, 12, 12}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := randomInput(uint64(i+1), shapes[i%len(shapes)])
			for {
				if _, err := b.infer(context.Background(), map[string]*mnn.Tensor{"data": in}); err != nil {
					// Once close() has fallen the batcher through to the
					// unbatched engine, non-primary shapes are rejected with
					// the engine's own shape error — a valid single response.
					if !errors.Is(err, mnn.ErrInputShape) {
						t.Errorf("submitter %d: %v", i, err)
					}
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	b.close() // engines close under live submit traffic; must drain, not hang
	close(stop)
	wg.Wait()
	eng.Close()
}
