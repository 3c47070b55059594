package mesh

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mnn/internal/fault"
	"mnn/internal/leakcheck"
	"mnn/serve"
)

// TestBackoffDelaySchedule pins the retry schedule: full jitter over the
// capped exponential min(cap, base × 2^attempt).
func TestBackoffDelaySchedule(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for attempt, w := range want {
		if d := backoffDelay(base, cap, attempt, 1.0); d != w*time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want %v", attempt, d, w*time.Millisecond)
		}
		if d := backoffDelay(base, cap, attempt, 0.5); d != w*time.Millisecond/2 {
			t.Fatalf("attempt %d, jitter 0.5: delay %v, want %v", attempt, d, w*time.Millisecond/2)
		}
	}
	// Absurd attempt counts must not overflow into negative delays.
	if d := backoffDelay(base, cap, 500, 1.0); d != cap {
		t.Fatalf("attempt 500: delay %v, want cap %v", d, cap)
	}
	if d := backoffDelay(base, cap, 3, 0); d != 0 {
		t.Fatalf("zero jitter: delay %v, want 0", d)
	}
}

// TestBackoffSeedDeterminism: the same RetrySeed replays the same jittered
// delays (the property a seeded -chaos run relies on to replay).
func TestBackoffSeedDeterminism(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		rt, err := New(Config{
			Replicas:       []string{"http://127.0.0.1:1"},
			RetrySeed:      seed,
			HealthInterval: time.Hour,
			HealthTimeout:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = rt.nextBackoff(i)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestPickHonorsAvoidMarks: a per-model avoid mark steers the pick to the
// other replica while leaving the marked one eligible for other models —
// and when every replica is marked, the pick still lands (pass 2).
func TestPickHonorsAvoidMarks(t *testing.T) {
	rt, err := New(Config{
		Replicas:       []string{"http://10.0.0.1:1", "http://10.0.0.2:1"},
		HealthInterval: time.Hour,
		HealthTimeout:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, rep := range rt.replicas {
		rep.healthy.Store(true)
	}
	home := rt.pick("m:1", nil)
	if home == nil {
		t.Fatal("no pick with both replicas healthy")
	}
	home.markAvoid("m:1", time.Now().Add(time.Minute))
	if got := rt.pick("m:1", nil); got == home {
		t.Fatal("pick ignored the avoid mark")
	}
	if got := rt.pick("other:1", nil); got == nil {
		t.Fatal("avoid mark for m:1 leaked onto another model")
	}
	// Mark both: the request must still land somewhere.
	for _, rep := range rt.replicas {
		rep.markAvoid("m:1", time.Now().Add(time.Minute))
	}
	if got := rt.pick("m:1", nil); got == nil {
		t.Fatal("pick returned nil with every replica marked; pass 2 must ignore marks")
	}
	// Expired marks clear lazily.
	rep := rt.replicas[0]
	rep.markAvoid("x:1", time.Now().Add(-time.Second))
	if rep.avoided("x:1", time.Now()) {
		t.Fatal("expired avoid mark still honored")
	}
}

// TestMeshConnResetRetriedWithBackoff injects one connection reset through
// the chaos transport and asserts the router absorbs it: the client sees
// 200, the retry counter moves, and a jittered backoff sleep happened.
func TestMeshConnResetRetriedWithBackoff(t *testing.T) {
	leakcheck.Check(t)
	g := tinyVariant(t, 0)
	load := func(reg *serve.Registry) {
		if err := reg.Load("tiny", serve.ModelConfig{Model: g, Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
	}
	r1, r2 := bootReplica(t, load), bootReplica(t, load)
	plan, err := fault.ParsePlan(7, "mesh.transport=connreset,count=1,match=infer")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastHealth(r1.base, r2.base)
	cfg.Transport = fault.NewTransport(http.DefaultTransport, fault.NewInjector(plan))
	cfg.RetrySeed = 11
	base, rt := startRouter(t, cfg)

	var slept atomic.Int64
	realSleep := rt.sleep
	rt.sleep = func(ctx context.Context, d time.Duration) error {
		slept.Add(int64(d))
		return realSleep(ctx, d)
	}
	data, code, _, err := inferVia(base, "tiny", testInput(1))
	if err != nil || code != http.StatusOK || data == nil {
		t.Fatalf("infer through reset: code=%d err=%v", code, err)
	}
	if got := sumMetric(scrape(t, base), "mnn_mesh_retries_total"); got != 1 {
		t.Fatalf("retries metric = %g, want 1", got)
	}
	if slept.Load() <= 0 {
		t.Fatal("no backoff sleep between the failed attempt and the retry")
	}
}

// TestMeshTruncatedResponseTyped502: a response that dies mid-body is a
// typed 502 and is NOT retried — the replica may have executed the
// request, and non-idempotent give-up semantics must hold.
func TestMeshTruncatedResponseTyped502(t *testing.T) {
	leakcheck.Check(t)
	r1 := bootReplica(t, func(reg *serve.Registry) {
		if err := reg.Load("tiny", serve.ModelConfig{Model: tinyVariant(t, 0), Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
	})
	plan, err := fault.ParsePlan(9, "mesh.transport=truncate,count=1,match=infer")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastHealth(r1.base)
	cfg.Transport = fault.NewTransport(http.DefaultTransport, fault.NewInjector(plan))
	base, _ := startRouter(t, cfg)

	resp, err := http.Post(base+"/v2/models/tiny/infer", "application/json",
		strings.NewReader(`{"inputs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("truncated response: status %d, want 502", resp.StatusCode)
	}
	text := scrape(t, base)
	if got := sumMetric(text, "mnn_mesh_truncated_responses_total"); got != 1 {
		t.Fatalf("truncated metric = %g, want 1", got)
	}
	if got := sumMetric(text, "mnn_mesh_retries_total"); got != 0 {
		t.Fatalf("truncation was retried (%g retries); must be final", got)
	}
	// Budget spent: traffic flows again.
	if _, code, _, err := inferVia(base, "tiny", testInput(1)); err != nil || code != http.StatusOK {
		t.Fatalf("infer after truncation: code=%d err=%v", code, err)
	}
}

// fakeReplica is a scripted backend for routing tests: /v2 health always
// passes; the infer path answers whatever respond returns.
func fakeReplica(t *testing.T, respond func(w http.ResponseWriter)) (string, *atomic.Int64) {
	t.Helper()
	var inferHits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v2/models/{name}/infer", func(w http.ResponseWriter, r *http.Request) {
		inferHits.Add(1)
		respond(w)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL, &inferHits
}

func quarantinedRespond(w http.ResponseWriter) {
	w.Header().Set("X-Model-Quarantined", "true")
	w.Header().Set("Retry-After", "30")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte(`{"error":"serve: model quarantined"}`))
}

func okRespond(w http.ResponseWriter) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"outputs":[]}`))
}

// TestMeshRoutesAroundQuarantine: a quarantined 503 is re-picked on
// another replica (invisible to the client), the quarantined pair is
// avoided on later picks, and when EVERY replica quarantines the model
// the last 503 is relayed with its marker header intact.
func TestMeshRoutesAroundQuarantine(t *testing.T) {
	leakcheck.Check(t)
	qBase, qHits := fakeReplica(t, quarantinedRespond)
	okBase, _ := fakeReplica(t, okRespond)
	base, _ := startRouter(t, fastHealth(qBase, okBase))

	for i := 0; i < 8; i++ {
		resp, err := http.Post(base+"/v2/models/m/infer", "application/json",
			strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via the healthy replica", i, resp.StatusCode)
		}
	}
	// The quarantined replica was consulted at most once: the avoid mark
	// (Retry-After 30) steers every later pick away.
	if n := qHits.Load(); n > 1 {
		t.Fatalf("quarantined replica was hit %d times; avoid mark not honored", n)
	}

	// All-quarantined: the client must see the 503 + marker, not a
	// generic no-replica error.
	q2Base, _ := fakeReplica(t, quarantinedRespond)
	q3Base, _ := fakeReplica(t, quarantinedRespond)
	base2, _ := startRouter(t, fastHealth(q2Base, q3Base))
	resp, err := http.Post(base2+"/v2/models/m/infer", "application/json",
		strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-quarantined: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Model-Quarantined") != "true" {
		t.Fatal("all-quarantined 503 lost its X-Model-Quarantined header")
	}
}

// TestMesh429AvoidMark: a 429 still passes through verbatim (admission
// semantics, never retried), but its Retry-After marks the (replica,
// model) pair so later picks prefer replicas that didn't just shed.
func TestMesh429AvoidMark(t *testing.T) {
	leakcheck.Check(t)
	shedBase, shedHits := fakeReplica(t, func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
	})
	okBase, _ := fakeReplica(t, okRespond)
	base, _ := startRouter(t, fastHealth(shedBase, okBase))

	saw429 := 0
	for i := 0; i < 10; i++ {
		resp, err := http.Post(base+"/v2/models/m/infer", "application/json",
			strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			saw429++
		case http.StatusOK:
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	// Pass-through preserved (the first pick may land on the shedding
	// replica) but the avoid mark caps it at one.
	if saw429 > 1 || shedHits.Load() > 1 {
		t.Fatalf("shedding replica consulted %d times, %d client 429s; avoid mark not honored",
			shedHits.Load(), saw429)
	}
}

// TestMeshRouterCloseNoLeaksUnderChaos: router shutdown releases every
// goroutine even with a fault-injecting transport mid-schedule.
func TestMeshRouterCloseNoLeaksUnderChaos(t *testing.T) {
	leakcheck.Check(t)
	g := tinyVariant(t, 0)
	r1 := bootReplica(t, func(reg *serve.Registry) {
		if err := reg.Load("tiny", serve.ModelConfig{Model: g, Options: tinyOpts}); err != nil {
			t.Fatal(err)
		}
	})
	plan, err := fault.ParsePlan(5, "mesh.transport=connreset,p=0.4,match=infer;mesh.transport=latency:5ms,p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	ft := fault.NewTransport(&http.Transport{}, fault.NewInjector(plan))
	cfg := fastHealth(r1.base)
	cfg.Transport = ft
	base, rt := startRouter(t, cfg)
	for i := 0; i < 10; i++ {
		_, _, _, _ = inferVia(base, "tiny", testInput(uint64(i)))
	}
	rt.Close()
	ft.CloseIdleConnections()
}

// TestCanarySeedDeterminism is the regression for canary picks drawing
// from the unseeded global rand while backoff jitter used the seeded
// stream: with a fixed RetrySeed, the sequence of canary decisions must
// replay exactly, and a different seed must produce a different sequence.
func TestCanarySeedDeterminism(t *testing.T) {
	rule := CanaryRule{{Version: "1", Weight: 50}, {Version: "2", Weight: 50}}
	draw := func(seed uint64) []string {
		rt, err := New(Config{
			Replicas:       []string{"http://127.0.0.1:1"},
			RetrySeed:      seed,
			HealthInterval: time.Hour,
			HealthTimeout:  time.Millisecond,
			Canary:         map[string]CanaryRule{"tiny": rule},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		out := make([]string, 64)
		for i := range out {
			out[i] = rule.pick(rt.randFloat())
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at pick %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := draw(1042)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-pick canary sequences")
	}
}
