package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "A counter.", "model")
	c.With("a").Inc()
	c.With("a").Add(2)
	c.With("b").Add(0.5)
	if got := c.With("a").Value(); got != 3 {
		t.Errorf("counter a = %v, want 3", got)
	}
	if got := c.With("b").Value(); got != 0.5 {
		t.Errorf("counter b = %v, want 0.5", got)
	}
	g := r.NewGauge("test_depth", "A gauge.")
	g.With().Set(7)
	g.With().Set(5)
	if got := g.With().Value(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("negative counter Add did not panic")
		}
	}()
	c.With("a").Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "A histogram.", []float64{0.01, 0.1, 1}, "model")
	child := h.With("m")
	for _, v := range []float64{0.005, 0.01, 0.02, 0.5, 2} {
		child.Observe(v)
	}
	if child.Count() != 5 {
		t.Errorf("count = %d, want 5", child.Count())
	}
	if math.Abs(child.Sum()-2.535) > 1e-9 {
		t.Errorf("sum = %v, want 2.535", child.Sum())
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: le 0.01 holds 0.005 and 0.01 (le semantics),
	// le 0.1 adds 0.02, le 1 adds 0.5, +Inf adds 2.
	for _, want := range []string{
		`test_seconds_bucket{model="m",le="0.01"} 2`,
		`test_seconds_bucket{model="m",le="0.1"} 3`,
		`test_seconds_bucket{model="m",le="1"} 4`,
		`test_seconds_bucket{model="m",le="+Inf"} 5`,
		`test_seconds_count{model="m"} 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("app_requests_total", "Total requests.", "model", "code")
	c.With("mobilenet-v1", "200").Add(3)
	c.With("mobilenet-v1", "429").Inc()
	g := r.NewGauge("app_up", "Server up.")
	g.With().Set(1)
	r.NewHistogram("app_latency_seconds", "Latency.", []float64{0.5}, "model")

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Total requests.
# TYPE app_requests_total counter
app_requests_total{model="mobilenet-v1",code="200"} 3
app_requests_total{model="mobilenet-v1",code="429"} 1
# HELP app_up Server up.
# TYPE app_up gauge
app_up 1
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
`
	if b.String() != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// ValidatePromText wraps ValidateText for test call sites.
func ValidatePromText(t *testing.T, text string) {
	t.Helper()
	if err := ValidateText(text); err != nil {
		t.Error(err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("esc_total", "Escapes.", "path")
	c.With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("escaped output = %q, want to contain %q", b.String(), want)
	}
	ValidatePromText(t, b.String())
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup_total", "y")
}

func TestLabelCardinalityPanics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("card_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label count did not panic")
		}
	}()
	c.With("only-one")
}

// TestConcurrentUpdates exercises the atomics under the race detector.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "x", "m")
	h := r.NewHistogram("conc_seconds", "x", nil, "m")
	g := r.NewGauge("conc_depth", "x", "m")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cnt := c.With("m")
			hist := h.With("m")
			for i := 0; i < 1000; i++ {
				cnt.Inc()
				hist.Observe(0.003)
				g.With("m").Set(float64(i))
			}
		}()
	}
	// Concurrent scrape while updating.
	for i := 0; i < 10; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := c.With("m").Value(); got != 8000 {
		t.Errorf("counter = %v, want 8000", got)
	}
	if got := h.With("m").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestVecDelete(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_bucket_gauge", "per-bucket gauge", "model", "bucket")
	g.With("m", "a").Set(1)
	g.With("m", "b").Set(2)
	g.Delete("m", "a")
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `bucket="a"`) {
		t.Fatalf("deleted series still rendered:\n%s", out)
	}
	if !strings.Contains(out, `test_bucket_gauge{model="m",bucket="b"} 2`) {
		t.Fatalf("surviving series missing:\n%s", out)
	}
	// Re-creating a deleted series starts from a fresh child.
	g.With("m", "a").Set(5)
	if v := g.With("m", "a").Value(); v != 5 {
		t.Fatalf("recreated series value %v, want 5", v)
	}
	// Deleting a never-created series is a no-op; wrong label count panics.
	g.Delete("m", "never")
	defer func() {
		if recover() == nil {
			t.Fatal("Delete with wrong label count did not panic")
		}
	}()
	g.Delete("m")
}
