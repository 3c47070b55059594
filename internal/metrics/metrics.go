// Package metrics is a dependency-free instrumentation library exposing
// counters, gauges and histograms in the Prometheus text exposition format
// (version 0.0.4). It implements the small subset of the Prometheus client
// model the serving tier needs — labeled metric families with deterministic
// output — without pulling the real client library into the module.
//
// Usage mirrors prometheus/client_golang:
//
//	reg := metrics.NewRegistry()
//	reqs := reg.NewCounter("mnn_requests_total", "Requests by model.", "model", "code")
//	reqs.With("mobilenet-v1", "200").Inc()
//	lat := reg.NewHistogram("mnn_infer_duration_seconds", "…", metrics.DefBuckets, "model")
//	lat.With("mobilenet-v1").Observe(0.0123)
//	reg.WriteText(w) // the body of a /metrics response
//
// All types are safe for concurrent use. Hot-path operations (Inc, Add,
// Observe on an already-resolved child) are lock-free atomics; resolving a
// child with With takes a short per-family mutex, so callers on hot paths
// should resolve children once and hold on to them.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are latency-oriented histogram buckets in seconds, matching the
// Prometheus client default: fine resolution in the single-millisecond range
// where engine inferences live, coarse out to 10 s for overload tails.
var DefBuckets = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them. Families appear in the
// output in registration order; children within a family in sorted
// label-value order, so consecutive scrapes of the same state are
// byte-identical (tests and diffs rely on this).
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // label-values key → *Counter/*Gauge/*Histogram
}

func (r *Registry) register(name, help, typ string, buckets []float64, labels []string) *family {
	if name == "" || strings.ContainsAny(name, " \n\"{}") {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[name] {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.seen[name] = true
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]any),
	}
	r.fams = append(r.fams, f)
	return f
}

// NewCounter registers a monotonically increasing counter family.
func (r *Registry) NewCounter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, "counter", nil, labels)}
}

// NewGauge registers a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, "gauge", nil, labels)}
}

// NewHistogram registers a histogram family with the given upper bucket
// bounds (ascending; the implicit +Inf bucket is added automatically).
// A nil buckets slice means DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending: %v", name, buckets))
		}
	}
	return &HistogramVec{fam: r.register(name, help, "histogram", append([]float64(nil), buckets...), labels)}
}

// child resolves (creating on first use) the child for the given label
// values; build constructs it.
func (f *family) child(values []string, build func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = build()
		f.children[key] = c
	}
	return c
}

// delete removes the child with the given label values; a no-op when the
// child doesn't exist.
func (f *family) delete(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	delete(f.children, key)
	f.mu.Unlock()
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// With resolves the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.child(values, func() any { return &Counter{} }).(*Counter)
}

// Counter is one monotonically increasing series.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas panic (counters are monotonic).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decrease")
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// Delete drops the child for the given label values so the series of a
// removed object stops appearing in scrapes. Resolving the same values
// again with With starts a fresh child from zero.
func (v *GaugeVec) Delete(values ...string) { v.fam.delete(values) }

// With resolves the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Gauge is one series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With resolves the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.child(values, func() any {
		return &Histogram{
			bounds: v.fam.buckets,
			counts: make([]atomic.Uint64, len(v.fam.buckets)+1),
		}
	}).(*Histogram)
}

// Histogram is one series of cumulative buckets plus sum and count.
type Histogram struct {
	bounds []float64       // shared with the family; never mutated
	counts []atomic.Uint64 // one per bound, last is +Inf
	sum    atomic.Uint64   // float64 bits
	n      atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bound >= v is the bucket the sample falls in ("le" semantics);
	// past the last bound it lands in +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.n.Add(1)
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// addFloat atomically adds delta to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// WriteText renders every family in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make(map[string]any, len(f.children))
	for k, v := range f.children {
		children[k] = v
	}
	f.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, "\x00")
		}
		switch c := children[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(c.Value()))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(c.Value()))
		case *Histogram:
			cum := uint64(0)
			for i, bound := range f.buckets {
				cum += c.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, "le", formatFloat(bound)), cum)
			}
			cum += c.counts[len(f.buckets)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(c.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), c.Count())
		}
	}
}

// labelString renders {a="x",b="y"[,extra="v"]}, or "" when empty.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes backslash, quote and newline exactly as the
		// exposition format requires.
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes newlines and backslashes in HELP text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
