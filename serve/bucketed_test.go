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

// tinyMaxShapes plans the tiny graph's unbatched engine for every spatial
// size up to 20², so its batcher buckets every such shape.
func tinyMaxShapes() mnn.Option {
	return mnn.WithMaxInputShapes(map[string][]int{"data": {1, 3, 20, 20}})
}

// TestBucketedMixedShapeBitwise is the mixed-shape extension of the serve
// bitwise e2e (run explicitly by the CI serve -race job): three input
// shapes hit one batching model concurrently over HTTP, each shape queues
// in its own bucket and runs stacked on the shared batch engine, and every
// response is bitwise identical to the model's own unbatched engine.
func TestBucketedMixedShapeBitwise(t *testing.T) {
	shapes := [][]int{{1, 3, 16, 16}, {1, 3, 12, 12}, {1, 3, 20, 20}}
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("tiny", ModelConfig{
		Model:   tinyGraph(t),
		Options: []mnn.Option{mnn.WithPoolSize(2), tinyMaxShapes()},
		Batch:   BatchConfig{MaxBatch: 4, MaxLatency: 5 * time.Millisecond, Buckets: len(shapes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)
	m, _ := reg.Get("tiny")

	const perShape = 8
	type job struct {
		in   *mnn.Tensor
		want map[string]*mnn.Tensor
		name string
	}
	var jobs []job
	for si, shape := range shapes {
		for i := 0; i < perShape; i++ {
			in := randomInput(uint64(100*si+i+1), shape)
			want, err := m.Engine().Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{in: in, want: want, name: fmt.Sprintf("shape %v req %d", shape, i)})
		}
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

// TestBucketLRUEviction: with the bucket table bounded at 2, a third shape
// evicts the least-recently-used idle bucket, every shape still serves
// bitwise-correct results, evictions leave the model's resident bytes as
// Load fixed them (a bucket owns no engine), and closing the registry
// returns the accounting to zero.
func TestBucketLRUEviction(t *testing.T) {
	reg := NewRegistry()
	err := reg.Load("tiny", ModelConfig{
		Model:   tinyGraph(t),
		Options: []mnn.Option{tinyMaxShapes()},
		Batch:   BatchConfig{MaxBatch: 2, MaxLatency: time.Millisecond, Buckets: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("tiny")
	loaded := reg.ResidentBytes()
	if loaded <= 0 || m.ResidentBytes() != loaded {
		t.Fatalf("resident bytes after Load: registry %d, model %d", loaded, m.ResidentBytes())
	}
	for i, shape := range [][]int{{1, 3, 16, 16}, {1, 3, 12, 12}, {1, 3, 20, 20}, {1, 3, 10, 10}} {
		in := randomInput(uint64(i+60), shape)
		want, err := m.Engine().Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		assertIdentical(t, fmt.Sprintf("shape %v", shape), got, want)
		if r := reg.ResidentBytes(); r != loaded {
			t.Fatalf("shape %v: resident bytes %d, Load fixed %d", shape, r, loaded)
		}
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
		t.Fatalf("resident bytes %d after Close, want 0", got)
	}
}

// TestBucketsOneFallThrough: Buckets=1 tracks one shape queue at a time. A
// second in-plan shape arriving while that queue is busy falls through to
// the unbatched engine, which serves it; shapes the unbatched engine
// refuses fall through to its typed error either way.
func TestBucketsOneFallThrough(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("tiny", ModelConfig{
		Model:   tinyGraph(t),
		Options: []mnn.Option{tinyMaxShapes()},
		Batch:   BatchConfig{MaxBatch: 4, MaxLatency: time.Hour, Buckets: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("tiny")
	b := batcherOf(t, m)
	if _, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": tensor.New(1, 3, 24, 24)}); !errors.Is(err, mnn.ErrShapeOutOfPlan) {
		t.Fatalf("out-of-plan shape: %v, want ErrShapeOutOfPlan", err)
	}
	// One request holds the only queue (a phantom approaching request keeps
	// it from being cut).
	release := holdCuts(b)
	defer release()
	queued := make(chan error, 1)
	go func() {
		_, err := m.Infer(context.Background(), tinyInput(5))
		queued <- err
	}()
	waitQueued(t, b, tinySig, 1)
	odd := randomInput(6, []int{1, 3, 12, 12})
	want, err := m.Engine().Infer(context.Background(), map[string]*mnn.Tensor{"data": odd})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": odd})
	if err != nil {
		t.Fatalf("second shape with the table full: %v", err)
	}
	assertIdentical(t, "fell-through shape", got, want)
	if flushes, _ := bucketServed(t, b, "data=1x3x12x12"); flushes != 0 {
		t.Fatalf("second shape got a bucket of its own (%d flushes) past a bound of 1", flushes)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued declared shape: %v", err)
	}
}

// TestBatchingRefusesOffCPUSchedules: the shared batch engine runs on the
// CPU, so a model whose unbatched engine schedules nodes on a (simulated)
// GPU could not keep batched ≡ unbatched, and Load refuses it with
// ErrUnknownBackend — whether the cost model picked the device's GPU for
// squeezenet's nodes or the forward type names it.
func TestBatchingRefusesOffCPUSchedules(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	for _, forward := range []mnn.ForwardType{mnn.ForwardAuto, mnn.ForwardVulkan} {
		err := reg.Load("sq", ModelConfig{
			Model: "squeezenet-v1.1",
			Options: []mnn.Option{mnn.WithDevice("Mate20"), mnn.WithForwardType(forward),
				mnn.WithInputShapes(map[string][]int{"data": {1, 3, 64, 64}})},
			Batch: BatchConfig{MaxBatch: 4},
		})
		if !errors.Is(err, mnn.ErrUnknownBackend) {
			t.Errorf("forward %v on Mate20 with batching: Load = %v, want ErrUnknownBackend", forward, err)
		}
	}
	if _, err := reg.Get("sq"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("refused loads left a model behind: %v", err)
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
	src := tensor.NewWithLayout(tensor.NC4HW4, outShape...)
	out := map[string]*mnn.Tensor{"prob": src}
	names := []string{"prob"}

	const iters = 64
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		res, err := splitOutputs(names, out, n)
		if err != nil || len(res) != n {
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
	// A batched output that does not lead with the member count is refused
	// with the typed error every member then gets.
	if _, err := splitOutputs(names, out, n-1); !errors.Is(err, ErrBatchSplit) {
		t.Fatalf("splitting %v into %d requests: %v, want ErrBatchSplit", outShape, n-1, err)
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
					// The unbatched engine is static, so the batcher hands
					// the 12×12 shape to it and it answers with its own
					// shape error — a valid single response.
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
