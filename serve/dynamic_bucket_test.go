package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mnn"
	"mnn/internal/tensor"
)

// dynTransformerOptions opens the transformer planned for any sequence
// length up to 16 — the serve-side entry point of the dynamic-shape engine.
func dynTransformerOptions() []mnn.Option {
	return []mnn.Option{
		mnn.WithMaxInputShapes(map[string][]int{"tokens": {1, 16, 32}}),
		mnn.WithPoolSize(2),
	}
}

// tryInferTokensOverHTTP is tryInferOverHTTP for models whose input is
// named "tokens" (the transformer built-in) rather than "data".
func tryInferTokensOverHTTP(base, model string, in *mnn.Tensor) (map[string]*mnn.Tensor, int, []byte, error) {
	req := InferRequest{Inputs: []InferTensor{EncodeTensor("tokens", in)}}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, nil, err
	}
	hresp, err := http.Post(base+"/v2/models/"+model+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	defer hresp.Body.Close()
	blob, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, hresp.StatusCode, nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, hresp.StatusCode, blob, nil
	}
	var resp InferResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		return nil, hresp.StatusCode, blob, fmt.Errorf("infer response: %v\n%s", err, blob)
	}
	out := make(map[string]*mnn.Tensor, len(resp.Outputs))
	for _, it := range resp.Outputs {
		dec, err := it.DecodeTensor()
		if err != nil {
			return nil, hresp.StatusCode, blob, fmt.Errorf("decoding output %q: %v", it.Name, err)
		}
		out[it.Name] = dec
	}
	return out, hresp.StatusCode, blob, nil
}

// TestDynamicBucketsMixedLengthBitwise is the end-to-end acceptance test
// for dynamic mode (run under -race in CI): three sequence lengths hit the
// transformer concurrently over HTTP, all are batched through the ONE
// shared dynamic engine (exact-n stacking, no padding), and every response
// is bitwise identical to a static unbatched engine prepared at exactly
// that request's shape. It also pins the out-of-plan HTTP contract: a
// sequence longer than the plan is a 400, not a corrupted answer.
func TestDynamicBucketsMixedLengthBitwise(t *testing.T) {
	shapes := [][]int{{1, 16, 32}, {1, 8, 32}, {1, 12, 32}}
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("transformer", ModelConfig{
		Model:   "transformer",
		Options: dynTransformerOptions(),
		Batch:   BatchConfig{MaxBatch: 4, MaxLatency: time.Hour, Buckets: len(shapes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)

	const perShape = 8 // two full batches of 4 per length
	type job struct {
		in   *mnn.Tensor
		want map[string]*mnn.Tensor
		name string
	}
	var jobs []job
	for si, shape := range shapes {
		ref, err := mnn.Open("transformer", mnn.WithInputShapes(map[string][]int{"tokens": shape}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perShape; i++ {
			in := randomInput(uint64(200*si+i+1), shape)
			want, err := ref.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
			if err != nil {
				ref.Close()
				t.Fatal(err)
			}
			jobs = append(jobs, job{in: in, want: want, name: fmt.Sprintf("len %d req %d", shape[1], i)})
		}
		ref.Close()
	}

	m, _ := reg.Get("transformer")
	// A phantom approaching request keeps every queue open until it fills,
	// so each length is served by exactly two stacked runs of 4.
	b := batcherOf(t, m)
	release := holdCuts(b)
	defer release()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			got, code, blob, err := tryInferTokensOverHTTP(base, "transformer", j.in)
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
	release()

	st, ok := m.batcherStats()
	if !ok {
		t.Fatal("no batcher stats on a batching model")
	}
	if want := int64(len(shapes) * perShape / 4); st.runs != want {
		t.Fatalf("%d stacked runs, want %d", st.runs, want)
	}
	if len(st.buckets) != len(shapes) {
		t.Fatalf("tracking %d buckets, want %d: %+v", len(st.buckets), len(shapes), st.buckets)
	}
	for _, bs := range st.buckets {
		if bs.fill != 1 {
			t.Errorf("bucket %s fill %v, want 1 (every run 4 wide)", bs.sig, bs.fill)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(blob)
	for _, want := range []string{
		`mnn_batch_buckets{model="transformer:1"} 3`,
		`mnn_batch_bucket_depth{model="transformer:1",bucket="tokens=1x8x32"}`,
		`mnn_batch_bucket_fill_ratio{model="transformer:1",bucket="tokens=1x12x32"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Out-of-plan shapes (sequence longer than the planned max) fall
	// through the bucket intake to the dynamic engine's typed rejection,
	// which the server maps to a 400.
	_, code, blob, err := tryInferTokensOverHTTP(base, "transformer", tensor.New(1, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-plan request: HTTP %d (%s), want 400", code, blob)
	}
	// And the server keeps serving in-plan traffic afterwards.
	if _, code, blob, err = tryInferTokensOverHTTP(base, "transformer", jobs[0].in); err != nil || code != http.StatusOK {
		t.Fatalf("in-plan request after rejection: HTTP %d, err %v: %s", code, err, blob)
	}
}

// TestDynamicBucketEvictionKeepsShared: eviction is pure bookkeeping —
// rotating signatures through a bound-2 bucket table must never close the
// shared engine out from under later traffic, every shape stays
// bitwise-correct, and closing the registry returns the resident byte
// accounting to zero (the shared engine is accounted at Load).
func TestDynamicBucketEvictionKeepsShared(t *testing.T) {
	reg := NewRegistry()
	err := reg.Load("transformer", ModelConfig{
		Model:   "transformer",
		Options: dynTransformerOptions(),
		Batch:   BatchConfig{MaxBatch: 2, MaxLatency: time.Millisecond, Buckets: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("transformer")
	shapes := [][]int{{1, 16, 32}, {1, 8, 32}, {1, 12, 32}, {1, 4, 32}, {1, 8, 32}}
	for i, shape := range shapes {
		in := randomInput(uint64(i+80), shape)
		ref, err := mnn.Open("transformer", mnn.WithInputShapes(map[string][]int{"tokens": shape}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"tokens": in})
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
		t.Fatal("no bucket evictions despite 4 signatures against a bound of 2")
	}
	reg.Close()
	if got := reg.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes %d after Close, want 0 (shared dynamic engine leaked from the accounting)", got)
	}
}

// TestDynamicBucketEvictHammer is a -race regression: submits at five
// in-plan sequence lengths race the bound-2 bucket table's constant
// evictions and then close() itself. Buckets own no engine, so an
// eviction concurrent with that bucket's in-flight batch must be pure
// bookkeeping — if eviction ever closed the shared engine
// under a run, the racing submitters would see engine-closed errors.
func TestDynamicBucketEvictHammer(t *testing.T) {
	eng, err := mnn.Open("transformer", dynTransformerOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	b, err := newBatcher(ModelConfig{
		Model:   "transformer",
		Options: dynTransformerOptions(),
		Batch:   BatchConfig{MaxBatch: 4, MaxLatency: 200 * time.Microsecond, Buckets: 2},
	}, eng, batcherHooks{})
	if err != nil {
		t.Fatal(err)
	}
	shapes := [][]int{{1, 16, 32}, {1, 8, 32}, {1, 12, 32}, {1, 4, 32}, {1, 6, 32}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := randomInput(uint64(i+1), shapes[i%len(shapes)])
			for {
				// Every shape is in-plan: whether it lands in a bucket, is
				// evicted mid-queue, or falls through to the (dynamic)
				// unbatched engine during shutdown, it must succeed.
				if _, err := b.infer(context.Background(), map[string]*mnn.Tensor{"tokens": in}); err != nil {
					t.Errorf("submitter %d: %v", i, err)
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
	// Wait for the event, not a fixed sleep: under -race on a loaded host
	// the shared batch engine alone can take longer than 100 ms to open.
	for deadline := time.Now().Add(10 * time.Second); b.evictions.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if b.evictions.Load() == 0 {
		t.Error("no evictions despite 5 signatures against a bound of 2")
	}
	b.close() // shared engine closes only here, after the drain
	close(stop)
	wg.Wait()
}
