package mesh

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnn"
	"mnn/internal/tensor"
	"mnn/serve"
)

// tinyVariantJSON builds the serve test suite's tiny network (conv →
// depthwise → pointwise → global pool → softmax) with a weight-seed offset:
// different offsets give different weights, hence observably different
// outputs — which is how the shadow test proves whose response the client
// actually received.
func tinyVariantJSON(seedOffset int) string {
	return fmt.Sprintf(`{
  "name": "tiny",
  "inputs": ["data"],
  "outputs": ["prob"],
  "nodes": [
    {"name": "data", "op": "Input", "attrs": {"shape": [1, 3, 16, 16]}},
    {"name": "conv1", "op": "Conv2D", "inputs": ["data"], "weights": ["w1", "b1"],
     "attrs": {"kernel": [3], "pad": [1], "outputs": 8, "relu": true}},
    {"name": "gap", "op": "Pool", "inputs": ["conv1"], "attrs": {"type": "avg", "global": true}},
    {"name": "flat", "op": "Flatten", "inputs": ["gap"], "attrs": {"axis": 1}},
    {"name": "prob", "op": "Softmax", "inputs": ["flat"], "attrs": {"axis": 1}}
  ],
  "weights": [
    {"name": "w1", "shape": [8, 3, 3, 3], "init": "random", "seed": %d, "scale": 0.3},
    {"name": "b1", "shape": [8], "init": "random", "seed": %d, "scale": 0.1}
  ]
}`, seedOffset+1, seedOffset+2)
}

func tinyVariant(t *testing.T, seedOffset int) *mnn.Graph {
	t.Helper()
	g, err := mnn.ParseJSONModel(strings.NewReader(tinyVariantJSON(seedOffset)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var tinyOpts = []mnn.Option{mnn.WithPoolSize(2), mnn.WithThreads(1)}

// replicaHandle is one in-process mnnserve replica the router fronts. kill
// simulates a crash: listeners and established connections close
// immediately, nothing drains.
type replicaHandle struct {
	base string
	reg  *serve.Registry
	hs   *http.Server
}

func (rh *replicaHandle) kill() { rh.hs.Close() }

func bootReplica(t *testing.T, load func(reg *serve.Registry)) *replicaHandle {
	t.Helper()
	reg := serve.NewRegistry()
	load(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: serve.NewServer(reg).Handler()}
	go hs.Serve(l)
	rh := &replicaHandle{base: "http://" + l.Addr().String(), reg: reg, hs: hs}
	t.Cleanup(func() { rh.kill(); reg.Close() })
	return rh
}

func startRouter(t *testing.T, cfg Config) (string, *Router) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: rt.Handler()}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close(); rt.Close() })
	return "http://" + l.Addr().String(), rt
}

// fastHealth is the test health/breaker configuration: tight enough that
// ejection and recovery happen within a test, not so tight that a loaded CI
// machine flaps.
func fastHealth(replicas ...string) Config {
	return Config{
		Replicas:         replicas,
		HealthInterval:   25 * time.Millisecond,
		HealthTimeout:    2 * time.Second,
		UnhealthyAfter:   2,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
	}
}

func testInput(seed uint64) *mnn.Tensor {
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, seed, 1)
	return in
}

// inferVia posts one inference through base and returns the first output
// tensor's data (nil unless 200), the status code and the serving replica.
func inferVia(base, ref string, in *mnn.Tensor) (data []float32, code int, replica string, err error) {
	body, err := json.Marshal(serve.InferRequest{Inputs: []serve.InferTensor{serve.EncodeTensor("data", in)}})
	if err != nil {
		return nil, 0, "", err
	}
	resp, err := http.Post(base+"/v2/models/"+ref+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, resp.Header.Get("X-Mesh-Replica"), nil
	}
	var ir serve.InferResponse
	if err := json.Unmarshal(blob, &ir); err != nil {
		return nil, resp.StatusCode, "", err
	}
	if len(ir.Outputs) == 0 {
		return nil, resp.StatusCode, "", fmt.Errorf("no outputs in %s", blob)
	}
	return ir.Outputs[0].Data, resp.StatusCode, resp.Header.Get("X-Mesh-Replica"), nil
}

// scrape fetches a /metrics page.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// sumMetric sums the values of every series whose "name{labels}" part
// contains all the given substrings.
func sumMetric(text string, substrings ...string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			continue
		}
		series, val := line[:i], line[i+1:]
		ok := true
		for _, sub := range substrings {
			if !strings.Contains(series, sub) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err == nil {
			total += f
		}
	}
	return total
}

// TestRouterFailover is the mesh e2e: 3 replicas all serving the same
// model set, a flood through the router, one replica — the home of m0 —
// crash-killed between flood phases. Requirements: zero failed client
// requests (connection-level failures retry on other replicas), the health
// checker ejects the dead replica, and the survivors absorb its traffic.
func TestRouterFailover(t *testing.T) {
	models := []string{"m0", "m1", "m2", "m3", "m4", "m5"}
	loadAll := func(reg *serve.Registry) {
		g := tinyVariant(t, 0)
		for _, name := range models {
			if err := reg.Load(name, serve.ModelConfig{Model: g, Options: tinyOpts}); err != nil {
				t.Fatal(err)
			}
		}
	}
	reps := []*replicaHandle{bootReplica(t, loadAll), bootReplica(t, loadAll), bootReplica(t, loadAll)}
	base, rt := startRouter(t, fastHealth(reps[0].base, reps[1].base, reps[2].base))

	in := testInput(7)
	var failures atomic.Int64
	flood := func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n/4; i++ {
					ref := models[(w+i)%len(models)]
					_, code, _, err := inferVia(base, ref, in)
					if err != nil || code != http.StatusOK {
						failures.Add(1)
						t.Errorf("infer %s: code %d err %v", ref, code, err)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	flood(160)

	// Crash m0's home with the health checker paused, then ask for m0: the
	// dead home is picked first, so the retry path runs. Left running, the
	// checker (25 ms, 2 misses) could eject the victim before any post-kill
	// request reached it.
	victim := rt.ring.walk(models[0])[0]
	rt.hc.stop()
	reps[victim].kill()
	if _, code, _, err := inferVia(base, models[0], in); err != nil || code != http.StatusOK {
		t.Fatalf("infer %s right after the kill: code %d err %v", models[0], code, err)
	}
	rt.hc.start()

	flood(160)

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests across the kill", n)
	}

	// The health checker must have ejected the victim by now (interval 25ms,
	// 2 misses); poll briefly to avoid scraping mid-round.
	deadline := time.Now().Add(3 * time.Second)
	for {
		text := scrape(t, base)
		if sumMetric(text, "mnn_mesh_replica_healthy", reps[victim].base) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s still marked healthy:\n%s", reps[victim].base, text)
		}
		time.Sleep(20 * time.Millisecond)
	}

	text := scrape(t, base)
	if got := sumMetric(text, "mnn_mesh_retries_total", reps[victim].base); got == 0 {
		t.Error("no retries recorded against the killed replica — the retry path never ran")
	}
	var survivors float64
	for i, rep := range reps {
		if i != victim {
			survivors += sumMetric(text, "mnn_mesh_requests_total", rep.base, `code="200"`)
		}
	}
	if survivors < 160 {
		t.Errorf("survivors served %.0f requests, want at least the post-kill phase (160)", survivors)
	}
	// And the mesh still reports ready with one replica down.
	resp, err := http.Get(base + "/v2/health/ready")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ready after kill: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestRouterCanary: unpinned requests split between versions by weight
// (within statistical tolerance); pinned requests bypass the canary
// entirely.
func TestRouterCanary(t *testing.T) {
	load := func(reg *serve.Registry) {
		if err := reg.Load("c:1", serve.ModelConfig{Model: tinyVariant(t, 0), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
		if err := reg.Load("c:2", serve.ModelConfig{Model: tinyVariant(t, 100), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
	}
	reps := []*replicaHandle{bootReplica(t, load), bootReplica(t, load)}
	cfg := fastHealth(reps[0].base, reps[1].base)
	cfg.Canary = map[string]CanaryRule{"c": {{Version: "1", Weight: 75}, {Version: "2", Weight: 25}}}
	base, _ := startRouter(t, cfg)

	in := testInput(11)
	// Pinned phase: version 2 explicitly; the canary must not touch these.
	for i := 0; i < 40; i++ {
		if _, code, _, err := inferVia(base, "c:2", in); err != nil || code != http.StatusOK {
			t.Fatalf("pinned infer: code %d err %v", code, err)
		}
	}
	text := scrape(t, base)
	if got := sumMetric(text, "mnn_mesh_canary_total"); got != 0 {
		t.Fatalf("canary counted %v pinned requests, want 0", got)
	}

	// Unpinned phase: 400 bare-name requests, expect a ~75/25 split.
	const unpinned = 400
	for i := 0; i < unpinned; i++ {
		if _, code, _, err := inferVia(base, "c", in); err != nil || code != http.StatusOK {
			t.Fatalf("unpinned infer %d: code %d err %v", i, code, err)
		}
	}
	text = scrape(t, base)
	v1 := sumMetric(text, "mnn_mesh_canary_total", `version="1"`)
	v2 := sumMetric(text, "mnn_mesh_canary_total", `version="2"`)
	if v1+v2 != unpinned {
		t.Fatalf("canary counted %v+%v, want %d", v1, v2, unpinned)
	}
	// Mean 300, binomial σ≈8.7; ±60 is ~7σ — a real weight bug (e.g. 50/50
	// → mean 200) is >10σ away, noise is not.
	if v1 < 240 || v1 > 360 {
		t.Errorf("version 1 got %v/400 unpinned requests, want 300±60", v1)
	}

	// The replicas must have served the versions the canary chose: their
	// own per-ref request counters add up ref-by-ref.
	var served1, served2 float64
	for _, rep := range reps {
		rtext := scrape(t, rep.base)
		served1 += sumMetric(rtext, "mnn_requests_total", `model="c:1"`, `code="200"`)
		served2 += sumMetric(rtext, "mnn_requests_total", `model="c:2"`, `code="200"`)
	}
	if served1 != v1 || served2 != v2+40 {
		t.Errorf("replicas served c:1=%v c:2=%v, want %v and %v (canary + 40 pinned)",
			served1, served2, v1, v2+40)
	}
}

// TestRouterShadow: shadow traffic reaches the shadow version, but the
// client always receives the primary version's response — even when the
// shadow version is broken (missing), nothing surfaces.
func TestRouterShadow(t *testing.T) {
	load := func(reg *serve.Registry) {
		// d:1 and d:2 have different weights, so their outputs differ —
		// receiving d:2's output would be detectable.
		if err := reg.Load("d:1", serve.ModelConfig{Model: tinyVariant(t, 0), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
		if err := reg.Load("d:2", serve.ModelConfig{Model: tinyVariant(t, 200), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
		// Stable version stays the default; version 2 is the shadow
		// candidate. Without the pin, bare "d" would resolve to the highest
		// version (2) on the replica and the isolation check would be moot.
		if err := reg.SetDefault("d", "1"); err != nil {
			t.Fatal(err)
		}
		// e has no version 9: its shadow duplicates all 404.
		if err := reg.Load("e:1", serve.ModelConfig{Model: tinyVariant(t, 0), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
	}
	reps := []*replicaHandle{bootReplica(t, load), bootReplica(t, load)}
	cfg := fastHealth(reps[0].base, reps[1].base)
	cfg.Shadow = map[string]string{"d": "2", "e": "9"}
	base, _ := startRouter(t, cfg)

	in := testInput(23)
	// Ground truth straight from a replica, bypassing the router.
	want1, code, _, err := inferVia(reps[0].base, "d:1", in)
	if err != nil || code != http.StatusOK {
		t.Fatalf("direct d:1: code %d err %v", code, err)
	}
	want2, code, _, err := inferVia(reps[0].base, "d:2", in)
	if err != nil || code != http.StatusOK {
		t.Fatalf("direct d:2: code %d err %v", code, err)
	}
	if floatsEqual(want1, want2) {
		t.Fatal("d:1 and d:2 produce identical outputs; the shadow check would be vacuous")
	}

	for i := 0; i < 30; i++ {
		got, code, _, err := inferVia(base, "d", in)
		if err != nil || code != http.StatusOK {
			t.Fatalf("shadowed infer %d: code %d err %v", i, code, err)
		}
		if !floatsEqual(got, want1) {
			t.Fatalf("shadowed infer %d returned something other than d:1's output (d:2 leaked? got %v)", i, got)
		}
	}
	// Shadow traffic to a missing version: clients still never see an error.
	for i := 0; i < 20; i++ {
		if _, code, _, err := inferVia(base, "e", in); err != nil || code != http.StatusOK {
			t.Fatalf("broken-shadow infer %d: code %d err %v", i, code, err)
		}
	}

	// The duplicates are async; wait for their outcomes to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		text := scrape(t, base)
		okCount := sumMetric(text, "mnn_mesh_shadow_total", `model="d"`, `outcome="ok"`)
		errCount := sumMetric(text, "mnn_mesh_shadow_total", `model="e"`, `outcome="error"`)
		if okCount > 0 && errCount > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow outcomes never landed (d ok=%v, e error=%v)", okCount, errCount)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-6 {
			return false
		}
	}
	return true
}

// TestRouter429PassThrough: admission rejections are replica state, not
// connection failures — they pass through verbatim (Retry-After included)
// and are never retried on another replica.
func TestRouter429PassThrough(t *testing.T) {
	load := func(reg *serve.Registry) {
		err := reg.Load("q", serve.ModelConfig{
			Model:     tinyVariant(t, 0),
			Options:   []mnn.Option{mnn.WithPoolSize(1), mnn.WithThreads(1)},
			Admission: serve.AdmissionConfig{Queue: 1, Concurrency: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reps := []*replicaHandle{bootReplica(t, load), bootReplica(t, load)}
	base, _ := startRouter(t, fastHealth(reps[0].base, reps[1].base))

	body, _ := json.Marshal(serve.InferRequest{Inputs: []serve.InferTensor{serve.EncodeTensor("data", testInput(3))}})
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		shed       int
		badStatus  []int
		retryAfter = true
	)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(base+"/v2/models/q/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					shed++
					if resp.Header.Get("Retry-After") == "" {
						retryAfter = false
					}
				default:
					badStatus = append(badStatus, resp.StatusCode)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(badStatus) > 0 {
		t.Fatalf("unexpected statuses %v (want only 200 and 429)", badStatus)
	}
	if shed == 0 {
		t.Skip("flood produced no 429s on this machine; pass-through not exercised")
	}
	if !retryAfter {
		t.Error("429 responses lost their Retry-After header through the router")
	}
	if got := sumMetric(scrape(t, base), "mnn_mesh_retries_total"); got != 0 {
		t.Errorf("router retried %v times during an overload flood — 429s must never be retried", got)
	}
}

// TestRouterRepositoryFanout: loading a model through the router installs
// it on every replica (its traffic may hash anywhere), listing merges
// replica catalogues, and unload removes it mesh-wide.
func TestRouterRepositoryFanout(t *testing.T) {
	load := func(reg *serve.Registry) {
		if err := reg.Load("pre", serve.ModelConfig{Model: tinyVariant(t, 0), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
	}
	reps := []*replicaHandle{bootReplica(t, load), bootReplica(t, load)}
	base, _ := startRouter(t, fastHealth(reps[0].base, reps[1].base))

	path := t.TempDir() + "/tiny.mnng"
	if err := mnn.SaveModelFile(tinyVariant(t, 0), path); err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(serve.LoadRequest{Model: path, Options: serve.LoadOptions{PoolSize: 1, Threads: 1}})
	resp, err := http.Post(base+"/v2/repository/models/hot/load", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fanout load: %d", resp.StatusCode)
	}
	for _, rep := range reps {
		if _, err := rep.reg.Get("hot"); err != nil {
			t.Errorf("replica %s did not get the fanned-out load: %v", rep.base, err)
		}
	}

	lresp, err := http.Get(base + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	var list serve.ModelList
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	want := []string{"hot", "pre"}
	if fmt.Sprint(list.Models) != fmt.Sprint(want) {
		t.Errorf("merged model list %v, want %v", list.Models, want)
	}
	if fmt.Sprint(list.Refs) != fmt.Sprint([]string{"hot:1", "pre:1"}) {
		t.Errorf("merged refs %v", list.Refs)
	}

	if _, code, _, err := inferVia(base, "hot", testInput(5)); err != nil || code != http.StatusOK {
		t.Fatalf("infer on fanned-out model: code %d err %v", code, err)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v2/repository/models/hot", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("fanout unload: %d", dresp.StatusCode)
	}
	for _, rep := range reps {
		if _, err := rep.reg.Get("hot"); err == nil {
			t.Errorf("replica %s still has the model after fanout unload", rep.base)
		}
	}
}

// TestRouterNoReplica: with every replica dead the router answers 503 (and
// counts it) instead of hanging.
func TestRouterNoReplica(t *testing.T) {
	rep := bootReplica(t, func(reg *serve.Registry) {
		if err := reg.Load("m", serve.ModelConfig{Model: tinyVariant(t, 0), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
	})
	base, _ := startRouter(t, fastHealth(rep.base))
	rep.kill()

	_, code, _, err := inferVia(base, "m", testInput(9))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("infer with dead mesh: %d, want 503", code)
	}
	// Readiness follows once the checker notices.
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(base + "/v2/health/ready")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mesh still ready with its only replica dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := sumMetric(scrape(t, base), "mnn_mesh_no_replica_total"); got == 0 {
		t.Error("no-replica counter never incremented")
	}
}
