package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"mnn"
	"mnn/internal/metrics"
)

// tryInferWithHeaders is tryInferOverHTTP plus request headers and the
// response headers, for the admission tests (Retry-After, priorities,
// deadlines).
func tryInferWithHeaders(base, model string, in *mnn.Tensor, hdrs map[string]string) (map[string]*mnn.Tensor, int, []byte, http.Header, error) {
	body, err := inferBody(in)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	return postInferBody(base, model, body, hdrs)
}

// inferBody encodes the request body that carries in as input "data".
func inferBody(in *mnn.Tensor) ([]byte, error) {
	return json.Marshal(&InferRequest{Inputs: []InferTensor{EncodeTensor("data", in)}})
}

// postInferBody is tryInferWithHeaders for a body encoded beforehand, so a
// flood's requests cost their senders nothing but the round trip.
func postInferBody(base, model string, body []byte, hdrs map[string]string) (map[string]*mnn.Tensor, int, []byte, http.Header, error) {
	hreq, err := http.NewRequest(http.MethodPost, base+"/v2/models/"+model+"/infer", bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdrs {
		hreq.Header.Set(k, v)
	}
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	defer hresp.Body.Close()
	blob, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, hresp.StatusCode, nil, hresp.Header, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, hresp.StatusCode, blob, hresp.Header, nil
	}
	var resp InferResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		return nil, hresp.StatusCode, blob, hresp.Header, fmt.Errorf("infer response: %v\n%s", err, blob)
	}
	out := make(map[string]*mnn.Tensor, len(resp.Outputs))
	for _, it := range resp.Outputs {
		dec, err := it.DecodeTensor()
		if err != nil {
			return nil, hresp.StatusCode, blob, hresp.Header, fmt.Errorf("decoding output %q: %v", it.Name, err)
		}
		out[it.Name] = dec
	}
	return out, hresp.StatusCode, blob, hresp.Header, nil
}

// TestOverloadShedsWithRetryAfter is the overload acceptance scenario: one
// model with concurrency 1 and a 2-deep queue is flooded well past capacity
// while a second model receives light traffic. The flood must split into
// admitted requests (200, bitwise identical to the unbatched engine) and
// fast 429 rejections carrying Retry-After; the quiet model's latency must
// stay within budget; and the whole flood must resolve in bounded time —
// rejections cannot wait out the backlog.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	// The hot model must hold its one slot for the whole flood, or the
	// backlog drains as fast as requests arrive and nothing sheds: a kernel's
	// speed moves with every kernel change, the host's load and the race
	// detector, so the service time is the fault injector's latency rule
	// instead. Every inference of the hot engine sleeps `hold` first; the
	// flood reaches admission in a fraction of that, so at most concurrency
	// 1 + queue 2 of it can be admitted before the first one finishes.
	const hold, flood = 300 * time.Millisecond, 12
	shape := []int{1, 3, 32, 32}
	plan, err := mnn.ParseFaultPlan(1, fmt.Sprintf("engine.infer=latency:%v", hold))
	if err != nil {
		t.Fatal(err)
	}
	engineOpts := []mnn.Option{mnn.WithPoolSize(1), mnn.WithThreads(1),
		mnn.WithInputShapes(map[string][]int{"data": shape})}
	reg := NewRegistry()
	if err := reg.Load("hot", ModelConfig{
		Model:     "mobilenet-v1",
		Options:   append(engineOpts, mnn.WithFaultPlan(plan)),
		Admission: AdmissionConfig{Queue: 2, Concurrency: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// The admitted outputs are checked against a twin engine without the
	// latency rule.
	twin, err := mnn.Open("mobilenet-v1", engineOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if err := reg.Load("calm", ModelConfig{
		Model:   tinyGraph(t),
		Options: []mnn.Option{mnn.WithPoolSize(1), mnn.WithThreads(1)},
	}); err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)

	encode := func(in *mnn.Tensor) []byte {
		body, err := inferBody(in)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	bodies := make([][]byte, flood)
	want := make([]map[string]*mnn.Tensor, flood)
	for i := range bodies {
		in := randomInput(uint64(300+i), shape)
		bodies[i] = encode(in)
		w, err := twin.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	type result struct {
		out     map[string]*mnn.Tensor
		code    int
		hdr     http.Header
		err     error
		elapsed time.Duration
	}
	results := make([]result, flood)
	var calmLat []time.Duration
	var calmMu sync.Mutex
	var wg sync.WaitGroup
	stopCalm := make(chan struct{})
	calmIn := randomInput(999, []int{1, 3, 16, 16})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopCalm:
				return
			default:
			}
			t0 := time.Now()
			_, code, blob, err := tryInferOverHTTP(base, "calm", calmIn)
			if err != nil || code != http.StatusOK {
				t.Errorf("calm model: %d %v %s", code, err, blob)
				return
			}
			calmMu.Lock()
			calmLat = append(calmLat, time.Since(t0))
			calmMu.Unlock()
		}
	}()

	floodStart := time.Now()
	var floodWG sync.WaitGroup
	for i := 0; i < flood; i++ {
		floodWG.Add(1)
		go func(i int) {
			defer floodWG.Done()
			t0 := time.Now()
			out, code, _, hdr, err := postInferBody(base, "hot", bodies[i], nil)
			results[i] = result{out: out, code: code, hdr: hdr, err: err, elapsed: time.Since(t0)}
		}(i)
	}
	floodWG.Wait()
	floodWall := time.Since(floodStart)
	close(stopCalm)
	wg.Wait()

	var ok200, shed429 int
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("flood request %d: %v", i, r.err)
		}
		switch r.code {
		case http.StatusOK:
			ok200++
			assertIdentical(t, fmt.Sprintf("admitted flood req %d", i), r.out, want[i])
		case http.StatusTooManyRequests:
			shed429++
			ra := r.hdr.Get("Retry-After")
			if ra == "" {
				t.Fatalf("flood request %d: 429 without Retry-After", i)
			}
			if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				t.Fatalf("flood request %d: Retry-After %q is not a positive integer", i, ra)
			}
		default:
			t.Fatalf("flood request %d: status %d", i, r.code)
		}
	}
	// Concurrency 1 + queue 2 against a simultaneous flood: at most
	// 1+2 requests can be in the system, so most of the flood must shed.
	if shed429 == 0 {
		t.Fatalf("flood of %d against queue 2: no 429s (got %d×200)", flood, ok200)
	}
	if ok200 == 0 {
		t.Fatalf("flood of %d: everything shed, nothing admitted", flood)
	}
	t.Logf("flood: %d admitted, %d shed in %v", ok200, shed429, floodWall)

	// Rejections are immediate, so the flood resolves in roughly the time
	// the admitted backlog (concurrency 1 + queue 2) takes to drain — not
	// flood × service time. The bound is generous for CI noise yet far
	// below a server that made every rejected request wait its turn.
	if maxWall := 15 * time.Second; floodWall > maxWall {
		t.Fatalf("flood took %v, want bounded by backlog drain (%v)", floodWall, maxWall)
	}

	// The calm model shared the server but not the hot model's queue: its
	// p99 stays within a budget that a blocked server would blow through.
	calmMu.Lock()
	defer calmMu.Unlock()
	if len(calmLat) == 0 {
		t.Fatal("calm model made no progress during the flood")
	}
	sort.Slice(calmLat, func(i, j int) bool { return calmLat[i] < calmLat[j] })
	p99 := calmLat[(99*len(calmLat)+99)/100-1]
	if budget := 2 * time.Second; p99 > budget {
		t.Fatalf("calm model p99 %v over budget %v during flood", p99, budget)
	}
}

// TestDeadlinePropagation pins the client-deadline plumbing: a model
// without admission control must still see X-Request-Timeout and
// X-Request-Deadline in its inference context, and malformed values are
// 400s rather than silently ignored deadlines.
func TestDeadlinePropagation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Load("tiny", ModelConfig{Model: tinyGraph(t)}); err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)
	in := randomInput(5, []int{1, 3, 16, 16})

	// An expired relative timeout cancels the inference (503, the server's
	// mapping of mnn.ErrCancelled), proving the header reached the context.
	_, code, blob, _, err := tryInferWithHeaders(base, "tiny", in, map[string]string{
		"X-Request-Timeout": "1ns",
	})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timeout 1ns: status %d %s, want 503 (cancelled)", code, blob)
	}

	// Same for an absolute deadline in the past.
	_, code, blob, _, err = tryInferWithHeaders(base, "tiny", in, map[string]string{
		"X-Request-Deadline": time.Now().Add(-time.Second).Format(time.RFC3339Nano),
	})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("past deadline: status %d %s, want 503 (cancelled)", code, blob)
	}

	// Generous deadlines don't interfere.
	_, code, blob, _, err = tryInferWithHeaders(base, "tiny", in, map[string]string{
		"X-Request-Timeout":  "30s",
		"X-Request-Deadline": time.Now().Add(30 * time.Second).Format(time.RFC3339Nano),
	})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("generous deadline: status %d %s, want 200", code, blob)
	}

	// Malformed values are rejected, not ignored.
	for hdr, val := range map[string]string{
		"X-Request-Timeout":  "soon",
		"X-Request-Deadline": "tomorrow",
		"X-Request-Priority": "urgent",
	} {
		_, code, blob, _, err := tryInferWithHeaders(base, "tiny", in, map[string]string{hdr: val})
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %s: status %d %s, want 400", hdr, val, code, blob)
		}
	}
	// A negative timeout is invalid too.
	_, code, blob, _, err = tryInferWithHeaders(base, "tiny", in, map[string]string{
		"X-Request-Timeout": "-5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("negative timeout: status %d %s, want 400", code, blob)
	}
}

// TestDegradePrecisionMetadata pins graceful degradation end-to-end: under
// sustained overload a degrade=int8 model switches to its quantized engine
// and responses say so ("precision": "int8"); when pressure clears it
// routes back to fp32.
func TestDegradePrecisionMetadata(t *testing.T) {
	shape := []int{1, 3, 64, 64}
	if raceEnabled {
		shape = []int{1, 3, 32, 32}
	}
	reg := NewRegistry()
	err := reg.Load("deg", ModelConfig{
		Model: "mobilenet-v1",
		Options: []mnn.Option{
			mnn.WithPoolSize(1), mnn.WithThreads(1),
			mnn.WithInputShapes(map[string][]int{"data": shape}),
		},
		Admission: AdmissionConfig{
			Queue: 1, Concurrency: 1,
			Degrade: "int8", DegradeThreshold: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)
	m, _ := reg.Get("deg")
	in := randomInput(77, shape)

	// Before any overload, responses carry the loaded precision.
	_, code, blob, _, err := tryInferWithHeaders(base, "deg", in, nil)
	if err != nil || code != http.StatusOK {
		t.Fatalf("pre-overload infer: %d %v %s", code, err, blob)
	}
	var resp InferResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Precision != "fp32" {
		t.Fatalf("pre-overload precision %q, want fp32", resp.Precision)
	}

	// Flood in waves until the shed-rate EWMA trips the degrade threshold.
	deadline := time.Now().Add(30 * time.Second)
	for !m.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("model never degraded; stats %+v", m.AdmissionStats())
		}
		var wg sync.WaitGroup
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, _, _, _ = tryInferWithHeaders(base, "deg", in, nil)
			}()
		}
		wg.Wait()
	}

	// An admitted request while degraded runs on the int8 engine and says so.
	_, code, blob, _, err = tryInferWithHeaders(base, "deg", in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("degraded infer: status %d %s (queue should be idle between waves)", code, blob)
	}
	resp = InferResponse{}
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Precision != "int8" {
		t.Fatalf("degraded precision %q, want int8", resp.Precision)
	}

	// Sustained calm traffic decays the shed EWMA below the hysteresis
	// floor; the model routes back and responses return to fp32.
	recovered := false
	for i := 0; i < 500 && !recovered; i++ {
		_, code, blob, _, err := tryInferWithHeaders(base, "deg", in, nil)
		if err != nil || code != http.StatusOK {
			t.Fatalf("recovery infer %d: %d %v %s", i, code, err, blob)
		}
		resp = InferResponse{}
		if err := json.Unmarshal(blob, &resp); err != nil {
			t.Fatal(err)
		}
		recovered = resp.Precision == "fp32"
	}
	if !recovered {
		t.Fatalf("model never routed back to fp32; stats %+v", m.AdmissionStats())
	}
	if m.Degraded() {
		t.Fatal("Degraded() still true after responses returned to fp32")
	}
	st := m.AdmissionStats()
	if st.DegradeTransitions < 2 {
		t.Fatalf("degrade transitions %d, want ≥ 2 (on and off)", st.DegradeTransitions)
	}
}

// TestMetricsEndpoint drives mixed traffic (successes, sheds, batched
// requests) and asserts GET /metrics serves valid Prometheus text with the
// families the dashboards and the CI smoke job rely on.
func TestMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	err := reg.Load("mx", ModelConfig{
		Model:     tinyGraph(t),
		Options:   []mnn.Option{mnn.WithPoolSize(1), mnn.WithThreads(1)},
		Batch:     BatchConfig{MaxBatch: 2, MaxLatency: 2 * time.Millisecond},
		Admission: AdmissionConfig{Queue: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)
	in := randomInput(42, []int{1, 3, 16, 16})

	// Successes (some batched), plus a flood to force at least one shed.
	for i := 0; i < 3; i++ {
		if _, code, blob := inferOverHTTP(t, base, "mx", in); code != http.StatusOK {
			t.Fatalf("infer %d: %d %s", i, code, blob)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, _ = tryInferOverHTTP(base, "mx", in)
		}()
	}
	wg.Wait()
	// And one 404 so requests_total has a non-200 code series.
	if _, code, _, _ := tryInferOverHTTP(base, "ghost", in); code != http.StatusNotFound {
		t.Fatalf("ghost infer: %d, want 404", code)
	}

	hresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", hresp.StatusCode)
	}
	if ct := hresp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	blob, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	if err := metrics.ValidateText(text); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, text)
	}
	for _, want := range []string{
		`mnn_queue_wait_seconds_bucket{model="mx:1",le="+Inf"}`,
		`mnn_queue_wait_seconds_count{model="mx:1"}`,
		`mnn_infer_duration_seconds_bucket{model="mx:1",le="+Inf"}`,
		`mnn_requests_total{model="mx:1",code="200"}`,
		`mnn_shed_total{model="mx:1",reason="queue_full"}`,
		`mnn_shed_total{model="mx:1",reason="deadline"}`,
		`mnn_queue_depth{model="mx:1"}`,
		`mnn_queue_capacity{model="mx:1"} 2`,
		`mnn_inflight_requests{model="mx:1"}`,
		`mnn_batch_flushes_total{model="mx:1"}`,
		`mnn_batch_fill_ratio{model="mx:1"}`,
		`mnn_degraded{model="mx:1"} 0`,
	} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !bytes.Contains(blob, []byte(`# TYPE mnn_queue_wait_seconds histogram`)) {
		t.Error("/metrics missing histogram TYPE line")
	}

	// The request counter reflects the traffic above: ≥3 successes and the
	// flood's outcomes all landed somewhere.
	var reqLines int
	for _, line := range bytes.Split(blob, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("mnn_requests_total{")) {
			reqLines++
		}
	}
	if reqLines == 0 {
		t.Error("no mnn_requests_total series at all")
	}
}
