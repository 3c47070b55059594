package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mnn"
	"mnn/internal/tensor"
)

// tinyJSON is a small but real network (conv → depthwise → pointwise →
// global pool → softmax) used where built-in ImageNet-sized models would
// just burn test time.
const tinyJSON = `{
  "name": "tiny",
  "inputs": ["data"],
  "outputs": ["prob"],
  "nodes": [
    {"name": "data", "op": "Input", "attrs": {"shape": [1, 3, 16, 16]}},
    {"name": "conv1", "op": "Conv2D", "inputs": ["data"], "weights": ["w1", "b1"],
     "attrs": {"kernel": [3], "pad": [1], "outputs": 8, "relu": true}},
    {"name": "dw", "op": "Conv2D", "inputs": ["conv1"], "weights": ["w2", "b2"],
     "attrs": {"kernel": [3], "pad": [1], "group": 8, "outputs": 8, "relu": true}},
    {"name": "pw", "op": "Conv2D", "inputs": ["dw"], "weights": ["w3", "b3"],
     "attrs": {"kernel": [1], "outputs": 16}},
    {"name": "gap", "op": "Pool", "inputs": ["pw"], "attrs": {"type": "avg", "global": true}},
    {"name": "flat", "op": "Flatten", "inputs": ["gap"], "attrs": {"axis": 1}},
    {"name": "prob", "op": "Softmax", "inputs": ["flat"], "attrs": {"axis": 1}}
  ],
  "weights": [
    {"name": "w1", "shape": [8, 3, 3, 3], "init": "random", "seed": 1, "scale": 0.3},
    {"name": "b1", "shape": [8], "init": "random", "seed": 2, "scale": 0.1},
    {"name": "w2", "shape": [8, 1, 3, 3], "init": "random", "seed": 3, "scale": 0.3},
    {"name": "b2", "shape": [8], "init": "random", "seed": 4, "scale": 0.1},
    {"name": "w3", "shape": [16, 8, 1, 1], "init": "random", "seed": 5, "scale": 0.3},
    {"name": "b3", "shape": [16], "init": "random", "seed": 6, "scale": 0.1}
  ]
}`

func tinyGraph(t *testing.T) *mnn.Graph {
	t.Helper()
	g, err := mnn.ParseJSONModel(strings.NewReader(tinyJSON))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// startServer serves reg on a random loopback port and returns the base URL.
// The returned shutdown func is idempotent and safe to both defer and call.
func startServer(t *testing.T, reg *Registry) (string, func(context.Context) error) {
	t.Helper()
	s := NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	var once sync.Once
	shutdown := func(ctx context.Context) error {
		var err error
		once.Do(func() {
			err = s.Shutdown(ctx)
			if serr := <-serveDone; !errors.Is(serr, ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", serr)
			}
		})
		return err
	}
	t.Cleanup(func() { _ = shutdown(context.Background()) })
	return "http://" + l.Addr().String(), shutdown
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

func randomInput(seed uint64, shape []int) *mnn.Tensor {
	in := tensor.New(shape...)
	tensor.FillRandom(in, seed, 1)
	return in
}

// tryInferOverHTTP is the goroutine-safe variant: it reports failures as
// errors instead of t.Fatal (which must not be called off the test
// goroutine). A non-200 status is returned without error so callers can
// assert on it.
func tryInferOverHTTP(base, model string, in *mnn.Tensor) (map[string]*mnn.Tensor, int, []byte, error) {
	req := InferRequest{Inputs: []InferTensor{EncodeTensor("data", in)}}
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

func inferOverHTTP(t *testing.T, base, model string, in *mnn.Tensor) (map[string]*mnn.Tensor, int, []byte) {
	t.Helper()
	out, code, blob, err := tryInferOverHTTP(base, model, in)
	if err != nil {
		t.Fatal(err)
	}
	return out, code, blob
}

func assertIdentical(t *testing.T, label string, got, want map[string]*mnn.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d outputs, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing output %q", label, name)
		}
		if !tensor.EqualShape(g.Shape(), w.Shape()) {
			t.Fatalf("%s: output %q shape %v, want %v", label, name, g.Shape(), w.Shape())
		}
		gd, wd := g.ToLayout(tensor.NCHW).Data(), w.ToLayout(tensor.NCHW).Data()
		for i := range wd {
			if gd[i] != wd[i] {
				t.Fatalf("%s: output %q element %d = %v, want %v (not element-wise identical)",
					label, name, i, gd[i], wd[i])
			}
		}
	}
}

// TestServeEndToEnd is the acceptance scenario: two built-in networks behind
// one server, ≥8 concurrent HTTP inferences each with micro-batching on,
// every result element-wise identical to the unbatched engine, hot
// load→infer→unload→404 through the repository API, and a graceful shutdown
// that drains an in-flight request.
func TestServeEndToEnd(t *testing.T) {
	// Both networks are fully convolutional into a global pool, so they
	// serve at any spatial size; under the race detector (~20× slower
	// convolutions) a smaller shape keeps the scenario well under timeouts.
	shape := []int{1, 3, 224, 224}
	if raceEnabled {
		shape = []int{1, 3, 64, 64}
	}
	reg := NewRegistry()
	for _, name := range []string{"squeezenet-v1.1", "mobilenet-v1"} {
		err := reg.Load(name, ModelConfig{
			Model: name,
			Options: []mnn.Option{
				mnn.WithPoolSize(2),
				mnn.WithInputShapes(map[string][]int{"data": shape}),
			},
			Batch: BatchConfig{MaxBatch: 4, MaxLatency: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	base, shutdown := startServer(t, reg)

	// Health and metadata surface.
	if code, _ := doJSON(t, http.MethodGet, base+"/v2/health/live", nil); code != http.StatusOK {
		t.Fatalf("live = %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, base+"/v2/health/ready", nil); code != http.StatusOK {
		t.Fatalf("ready = %d", code)
	}
	code, blob := doJSON(t, http.MethodGet, base+"/v2/models", nil)
	var list ModelList
	if code != http.StatusOK || json.Unmarshal(blob, &list) != nil || len(list.Models) != 2 {
		t.Fatalf("model list = %d %s", code, blob)
	}
	code, blob = doJSON(t, http.MethodGet, base+"/v2/models/mobilenet-v1", nil)
	var md ModelMetadata
	if code != http.StatusOK || json.Unmarshal(blob, &md) != nil {
		t.Fatalf("metadata = %d %s", code, blob)
	}
	if len(md.Inputs) != 1 || md.Inputs[0].Name != "data" ||
		!tensor.EqualShape(md.Inputs[0].Shape, shape) {
		t.Fatalf("metadata inputs = %+v", md.Inputs)
	}

	// ≥8 concurrent inferences per model, checked against the unbatched
	// engine on the very same inputs.
	const concurrent = 8
	for _, name := range []string{"squeezenet-v1.1", "mobilenet-v1"} {
		m, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Batching() {
			t.Fatalf("%s: batcher not active", name)
		}
		inputs := make([]*mnn.Tensor, concurrent)
		want := make([]map[string]*mnn.Tensor, concurrent)
		for i := range inputs {
			inputs[i] = randomInput(uint64(100+i), shape)
			w, err := m.Engine().Infer(context.Background(), map[string]*mnn.Tensor{"data": inputs[i]})
			if err != nil {
				t.Fatalf("%s: reference infer: %v", name, err)
			}
			want[i] = w
		}
		var wg sync.WaitGroup
		got := make([]map[string]*mnn.Tensor, concurrent)
		codes := make([]int, concurrent)
		errs := make([]error, concurrent)
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], codes[i], _, errs[i] = tryInferOverHTTP(base, name, inputs[i])
			}(i)
		}
		wg.Wait()
		for i := 0; i < concurrent; i++ {
			if errs[i] != nil {
				t.Fatalf("%s: request %d: %v", name, i, errs[i])
			}
			if codes[i] != http.StatusOK {
				t.Fatalf("%s: request %d status %d", name, i, codes[i])
			}
			assertIdentical(t, fmt.Sprintf("%s req %d", name, i), got[i], want[i])
		}
	}

	// Hot load a model file through the repository API, infer, unload, 404.
	path := filepath.Join(t.TempDir(), "tiny.mnng")
	if err := mnn.SaveModelFile(tinyGraph(t), path); err != nil {
		t.Fatal(err)
	}
	code, blob = doJSON(t, http.MethodPost, base+"/v2/repository/models/tiny/load",
		LoadRequest{Model: path, Options: LoadOptions{Threads: 1}})
	if code != http.StatusOK {
		t.Fatalf("load = %d %s", code, blob)
	}
	tin := randomInput(7, []int{1, 3, 16, 16})
	if _, code, blob := inferOverHTTP(t, base, "tiny", tin); code != http.StatusOK {
		t.Fatalf("tiny infer = %d %s", code, blob)
	}
	if code, blob = doJSON(t, http.MethodPost, base+"/v2/repository/models/tiny/unload", nil); code != http.StatusOK {
		t.Fatalf("unload = %d %s", code, blob)
	}
	_, code, blob = inferOverHTTP(t, base, "tiny", tin)
	if code != http.StatusNotFound {
		t.Fatalf("infer after unload = %d, want 404", code)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(blob, &eresp); err != nil || eresp.Error == "" {
		t.Fatalf("404 body is not an ErrorResponse: %s", blob)
	}

	// Graceful shutdown drains the in-flight request.
	inflight := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		in := randomInput(999, shape)
		_, code, blob, err := tryInferOverHTTP(base, "mobilenet-v1", in)
		if err != nil {
			inflight <- err
			return
		}
		if code != http.StatusOK {
			inflight <- fmt.Errorf("in-flight infer during shutdown = %d %s", code, blob)
			return
		}
		inflight <- nil
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the request reach the handler
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatal(err)
	}
	// The drained server refuses new work.
	if _, err := http.Get(base + "/v2/health/ready"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestBatcherPartialFlushAndFallThrough covers the fall-through for
// requests the batcher cannot stack: on a static engine the batcher takes
// exactly the declared shape, so anything else reaches the unbatched engine
// and gets its precise typed error.
func TestBatcherPartialFlushAndFallThrough(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("tiny", ModelConfig{
		Model:   tinyGraph(t),
		Options: []mnn.Option{mnn.WithPoolSize(2)},
		Batch:   BatchConfig{MaxBatch: 8, MaxLatency: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Get("tiny")
	if err != nil {
		t.Fatal(err)
	}
	// A spatial shape other than the declared one: a model that wants it
	// batched plans for it with WithMaxInputShapes.
	if _, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": tensor.New(1, 3, 8, 8)}); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("undeclared shape: %v, want ErrInputShape", err)
	}
	// A request that can never occupy one batch slot — leading batch dim
	// that isn't 1 — falls through to the unbatched engine and gets its
	// precise ErrInputShape.
	if _, err := m.Infer(context.Background(), map[string]*mnn.Tensor{"data": tensor.New(2, 3, 16, 16)}); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("batch-dim-2 shape: %v, want ErrInputShape", err)
	}
	// So does a request naming an unknown input.
	if _, err := m.Infer(context.Background(), map[string]*mnn.Tensor{
		"data": randomInput(9, []int{1, 3, 16, 16}), "bogus": tensor.New(1, 3, 8, 8),
	}); !errors.Is(err, mnn.ErrInputShape) {
		t.Fatalf("unknown input: %v, want ErrInputShape", err)
	}
	// A cancelled context surfaces ErrCancelled without hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Infer(ctx, tinyInput(1)); !errors.Is(err, mnn.ErrCancelled) {
		t.Fatalf("cancelled: %v, want ErrCancelled", err)
	}
}

// TestBatcherFullBatchIdentity drives exactly maxBatch concurrent requests
// into one stacked run and checks element-wise identity.
func TestBatcherFullBatchIdentity(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	err := reg.Load("tiny", ModelConfig{
		Model: tinyGraph(t),
		Batch: BatchConfig{MaxBatch: 4, MaxLatency: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("tiny")
	b := batcherOf(t, m)
	// A phantom approaching request keeps the queue open until all four
	// have joined; the fourth fills the batch.
	defer holdCuts(b)()
	const n = 4
	inputs := make([]*mnn.Tensor, n)
	want := make([]map[string]*mnn.Tensor, n)
	for i := range inputs {
		inputs[i] = randomInput(uint64(50+i), []int{1, 3, 16, 16})
		w, err := m.Engine().Infer(context.Background(), map[string]*mnn.Tensor{"data": inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
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
			assertIdentical(t, fmt.Sprintf("full-batch req %d", i), got, want[i])
		}(i)
	}
	wg.Wait()
	if runs := b.batchRuns.Load(); runs != 1 {
		t.Fatalf("%d stacked runs, want 1", runs)
	}
	if flushes, samples := bucketServed(t, b, tinySig); flushes != 1 || samples != n {
		t.Fatalf("declared bucket served %d samples in %d batches, want %d in 1", samples, flushes, n)
	}
}

// TestRegistryLifecycle covers hot swap, unload of unknown models, and
// post-Close behaviour.
func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Load("m", ModelConfig{Model: tinyGraph(t)}); err != nil {
		t.Fatal(err)
	}
	m1, _ := reg.Get("m")
	// Hot swap: same name, new engine; the old model is closed.
	if err := reg.Load("m", ModelConfig{Model: tinyGraph(t)}); err != nil {
		t.Fatal(err)
	}
	m2, _ := reg.Get("m")
	if m1 == m2 {
		t.Fatal("hot swap returned the old model")
	}
	if _, err := m1.Engine().Infer(context.Background(), nil); !errors.Is(err, mnn.ErrEngineClosed) {
		t.Fatalf("old engine after swap: %v, want ErrEngineClosed", err)
	}
	if err := reg.Unload("ghost"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unload unknown: %v, want ErrModelNotFound", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("m"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("get after close: %v, want ErrModelNotFound", err)
	}
	if err := reg.Load("m", ModelConfig{Model: tinyGraph(t)}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("load after close: %v, want ErrServerClosed", err)
	}
}

// TestServerErrorBodies checks the HTTP status mapping and JSON error
// bodies for the common failure classes.
func TestServerErrorBodies(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Load("tiny", ModelConfig{Model: tinyGraph(t)}); err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)

	assertErr := func(label string, wantCode, code int, blob []byte) {
		t.Helper()
		if code != wantCode {
			t.Fatalf("%s: status %d, want %d (%s)", label, code, wantCode, blob)
		}
		var e ErrorResponse
		if err := json.Unmarshal(blob, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: body %s is not an ErrorResponse", label, blob)
		}
	}

	code, blob := doJSON(t, http.MethodGet, base+"/v2/models/ghost", nil)
	assertErr("metadata of unknown model", http.StatusNotFound, code, blob)

	code, blob = doJSON(t, http.MethodPost, base+"/v2/models/tiny/infer",
		InferRequest{Inputs: []InferTensor{{Name: "data", Datatype: "INT64", Shape: []int{1}, Data: []float32{1}}}})
	assertErr("bad datatype", http.StatusBadRequest, code, blob)

	wrong := tensor.New(1, 3, 8, 8)
	code, blob = doJSON(t, http.MethodPost, base+"/v2/models/tiny/infer",
		InferRequest{Inputs: []InferTensor{EncodeTensor("data", wrong)}})
	assertErr("wrong shape", http.StatusBadRequest, code, blob)

	code, blob = doJSON(t, http.MethodPost, base+"/v2/repository/models/x/load",
		LoadRequest{Model: "no-such-network"})
	assertErr("load unknown network", http.StatusNotFound, code, blob)

	code, blob = doJSON(t, http.MethodPost, base+"/v2/repository/models/x/load",
		LoadRequest{Model: "squeezenet-v1.1", Options: LoadOptions{Forward: "quantum"}})
	assertErr("load bad forward type", http.StatusBadRequest, code, blob)

	code, blob = doJSON(t, http.MethodDelete, base+"/v2/repository/models/ghost", nil)
	assertErr("delete unknown model", http.StatusNotFound, code, blob)
}

// TestLoadOptionsPrecision: precision="int8" loads an int8-precision engine
// (reported in metadata), and an unknown precision is a bad request.
func TestLoadOptionsPrecision(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	opts, err := LoadOptions{Threads: 1, Precision: "int8"}.EngineOptions()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("q", ModelConfig{Model: tinyGraph(t), Options: opts}); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Get("q")
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine().Precision() != mnn.PrecisionInt8 {
		t.Errorf("engine precision %v, want int8", m.Engine().Precision())
	}
	md, err := m.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	if md.Precision != "int8" {
		t.Errorf("metadata precision %q, want int8", md.Precision)
	}
	if _, err := (LoadOptions{Precision: "int4"}).EngineOptions(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("precision=int4: got %v, want ErrBadRequest", err)
	}
}

func TestLoadOptionsDefaultThreads(t *testing.T) {
	// A model loaded without threads= must resolve to the engine's auto
	// default (min(GOMAXPROCS, 4)), not silently 1.
	reg := NewRegistry()
	defer reg.Close()
	if err := reg.Load("tiny", ModelConfig{Model: tinyGraph(t)}); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Get("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Engine().Threads(), mnn.DefaultThreads(); got != want {
		t.Errorf("default-loaded model threads = %d, want DefaultThreads() = %d", got, want)
	}
	// An explicit threads option is preserved.
	opts, err := LoadOptions{Threads: 1}.EngineOptions()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("one", ModelConfig{Model: tinyGraph(t), Options: opts}); err != nil {
		t.Fatal(err)
	}
	one, _ := reg.Get("one")
	if got := one.Engine().Threads(); got != 1 {
		t.Errorf("threads=1 model resolved to %d", got)
	}
}
