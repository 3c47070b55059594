package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnn"
	"mnn/serve/admission"
)

// TestLazyBudgetEviction is the memory-budget acceptance test: a registry
// whose budget holds only one of three models still serves all three,
// resident bytes never exceed the budget between requests, and — because
// every model shares a persistent tuning cache — reloading an evicted model
// re-opens its engines without re-measuring a single kernel.
func TestLazyBudgetEviction(t *testing.T) {
	cache := t.TempDir() + "/tuning.json"
	opts := []mnn.Option{
		mnn.WithPoolSize(1), mnn.WithThreads(1),
		mnn.WithTuning(mnn.TuningMeasured), mnn.WithTuningCache(cache),
	}
	reg := NewRegistry()
	defer reg.Close()
	// Budget set before any Load: every load below is implicitly lazy.
	reg.SetMemoryBudget(1 << 30)
	g := tinyGraph(t)
	for _, name := range []string{"a", "b", "c"} {
		if err := reg.Load(name, ModelConfig{Model: g, Options: opts}); err != nil {
			t.Fatal(err)
		}
		m, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Loaded() {
			t.Fatalf("%s resident before first request — lazy load did not defer", name)
		}
	}

	ctx := context.Background()
	infer := func(name string, seed uint64) {
		t.Helper()
		m, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.Infer(ctx, map[string]*mnn.Tensor{"data": randomInput(seed, []int{1, 3, 16, 16})})
		if err != nil {
			t.Fatalf("infer %s: %v", name, err)
		}
		if len(out) == 0 {
			t.Fatalf("infer %s: no outputs", name)
		}
	}

	// First request warms model a (cold: kernels actually measured, cache
	// written) and tells us what one resident model costs.
	infer("a", 1)
	a, _ := reg.Get("a")
	cold := a.TuningStats()
	if cold.Measured == 0 || !cold.CacheSaved {
		t.Fatalf("cold load did not measure and persist tuning: %+v", cold)
	}
	perModel := a.ResidentBytes()
	if perModel <= 0 {
		t.Fatalf("resident model reports %d bytes", perModel)
	}
	if got := reg.ResidentBytes(); got != perModel {
		t.Fatalf("registry resident %d != model resident %d", got, perModel)
	}

	// Now shrink the budget so exactly one model fits.
	budget := perModel + perModel/2
	reg.SetMemoryBudget(budget)
	if got := reg.ResidentBytes(); got > budget {
		t.Fatalf("resident %d exceeds budget %d right after SetMemoryBudget", got, budget)
	}

	// Round-robin over a working set larger than the budget: every request
	// must be served, and between requests the accounting must respect the
	// budget.
	for round := 0; round < 2; round++ {
		for _, name := range []string{"a", "b", "c"} {
			infer(name, uint64(10+round))
			if got := reg.ResidentBytes(); got > budget {
				t.Fatalf("round %d after %s: resident %d exceeds budget %d", round, name, got, budget)
			}
		}
	}

	// c was the last model served; the earlier two must have been evicted
	// to make room (LRU), not still resident.
	resident := 0
	for _, name := range []string{"a", "b", "c"} {
		m, _ := reg.Get(name)
		if m.Loaded() {
			resident++
		}
	}
	c, _ := reg.Get("c")
	if !c.Loaded() || resident != 1 {
		t.Fatalf("want exactly the last-used model resident, got %d resident (c loaded: %v)", resident, c.Loaded())
	}

	// Reload of an evicted model must resolve every kernel from the warm
	// tuning cache: zero measurements, full cache hits.
	infer("a", 20)
	warm := a.TuningStats()
	if warm.Measured != 0 {
		t.Fatalf("reload after eviction re-measured %d kernels; the tuning cache should have made Open measurement-free (%+v)", warm.Measured, warm)
	}
	if warm.Unique == 0 || warm.CacheHits != warm.Unique {
		t.Fatalf("reload cache hits %d of %d signatures: %+v", warm.CacheHits, warm.Unique, warm)
	}

	// The lifecycle is observable: loads, evictions and resident bytes are
	// exported. a loaded twice (cold + reload), and at least two evictions
	// happened across the round-robin.
	base, shutdown := startServer(t, reg)
	defer shutdown(ctx)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(blob)
	if got := metricSum(text, `mnn_model_loads_total{model="a:1"}`); got < 2 {
		t.Errorf("a:1 loads counter %v, want >= 2 (cold + reload)", got)
	}
	if got := metricSum(text, "mnn_model_evictions_total"); got < 2 {
		t.Errorf("evictions counter %v, want >= 2", got)
	}
	if got := metricSum(text, "mnn_memory_budget_bytes"); got != float64(budget) {
		t.Errorf("budget gauge %v, want %d", got, budget)
	}
	if got := metricSum(text, "mnn_resident_bytes"); got > float64(budget) {
		t.Errorf("resident gauge %v exceeds budget %d", got, budget)
	}
}

// metricSum sums values of series whose "name{labels}" prefix contains sub.
func metricSum(text, sub string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") || !strings.Contains(line, sub) {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			continue
		}
		var f float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &f); err == nil {
			total += f
		}
	}
	return total
}

// TestLifecycleChurnRace hammers a registry with concurrent inference,
// unload/reload cycles, and direct evictions. The invariant is not that
// every request succeeds — a request can legitimately land on a model
// mid-unload — but that every failure is one of the documented lifecycle
// errors and nothing panics, deadlocks, or races (run under -race).
func TestLifecycleChurnRace(t *testing.T) {
	g := tinyGraph(t)
	opts := []mnn.Option{mnn.WithPoolSize(1), mnn.WithThreads(1)}
	cfg := ModelConfig{Model: g, Options: opts, Lazy: true}
	reg := NewRegistry()
	defer reg.Close()
	for _, name := range []string{"a", "b"} {
		if err := reg.Load(name, cfg); err != nil {
			t.Fatal(err)
		}
	}

	allowed := func(err error) bool {
		return errors.Is(err, ErrModelNotFound) ||
			errors.Is(err, ErrServerClosed) ||
			errors.Is(err, mnn.ErrEngineClosed) ||
			errors.Is(err, mnn.ErrCancelled)
	}

	ctx := context.Background()
	var done atomic.Bool
	var workers, evictor sync.WaitGroup
	// Inference workers: loop over both models, tolerate lifecycle errors
	// only.
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			in := map[string]*mnn.Tensor{"data": randomInput(uint64(w), []int{1, 3, 16, 16})}
			for i := 0; i < 200; i++ {
				name := "a"
				if (w+i)%2 == 0 {
					name = "b"
				}
				m, err := reg.Get(name)
				if err != nil {
					if !allowed(err) {
						t.Errorf("Get(%s): unexpected %v", name, err)
					}
					continue
				}
				if _, err := m.Infer(ctx, in); err != nil && !allowed(err) {
					t.Errorf("Infer(%s): unexpected %v", name, err)
				}
			}
		}(w)
	}
	// Churner: unload/reload model a continuously.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < 60; i++ {
			if err := reg.Unload("a"); err != nil && !allowed(err) {
				t.Errorf("Unload: %v", err)
			}
			if err := reg.Load("a", cfg); err != nil {
				t.Errorf("Load: %v", err)
			}
		}
	}()
	// Evictor: force-evict whatever is idle, racing acquire's refcounts.
	evictor.Add(1)
	go func() {
		defer evictor.Done()
		for !done.Load() {
			for _, name := range []string{"a", "b"} {
				if m, err := reg.Get(name); err == nil {
					m.evict()
				}
			}
		}
	}()

	finished := make(chan struct{})
	go func() {
		workers.Wait()
		done.Store(true)
		evictor.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("lifecycle churn deadlocked")
	}
}

// TestShutdownDuringDegradedFlood closes the registry while an
// admission-controlled, degrade-enabled model is under a shedding flood.
// Queued waiters must be released promptly (bounded time), every error must
// be a documented admission/lifecycle error, and Close must be idempotent.
func TestShutdownDuringDegradedFlood(t *testing.T) {
	reg := NewRegistry()
	err := reg.Load("hot", ModelConfig{
		Model:   tinyGraph(t),
		Options: []mnn.Option{mnn.WithPoolSize(1), mnn.WithThreads(1)},
		Admission: AdmissionConfig{
			Queue: 4, Concurrency: 1,
			Degrade: "int8", DegradeThreshold: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Get("hot")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	var served, shed, closedErr atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := map[string]*mnn.Tensor{"data": randomInput(uint64(w), []int{1, 3, 16, 16})}
			// At least 50 requests, and then on until this worker has seen
			// the shutdown: a fixed count can finish before Close on a fast
			// engine (the whole flood is ~30 ms of work).
			sawClose := false
			for i := 0; i < 50 || (!sawClose && i < 1_000_000); i++ {
				_, err := m.Infer(ctx, in)
				var oe *admission.OverloadError
				switch {
				case err == nil:
					served.Add(1)
				case errors.As(err, &oe):
					shed.Add(1)
				case errors.Is(err, ErrServerClosed), errors.Is(err, ErrModelNotFound),
					errors.Is(err, mnn.ErrEngineClosed), errors.Is(err, mnn.ErrCancelled):
					closedErr.Add(1)
					sawClose = true
				default:
					t.Errorf("unexpected error during shutdown flood: %v", err)
					return
				}
			}
		}(w)
	}

	// Let the flood build a backlog, then pull the rug.
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	if err := reg.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Close took %v; queued waiters were not released promptly", d)
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("flood goroutines still blocked after Close — shutdown leaks waiters")
	}

	if closedErr.Load() == 0 {
		t.Error("no request observed the shutdown; Close raced past the whole flood (flaky timing or broken teardown)")
	}
	// Idempotent close.
	if err := reg.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	t.Logf("served=%d shed=%d closed=%d", served.Load(), shed.Load(), closedErr.Load())
}
