package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"mnn"
	"mnn/internal/graph"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64 // 0: no tail can be reported
	}{
		{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		pct, v, ok := tailPercentile(sorted)
		if ok != (tc.pct != 0) || pct != tc.pct {
			t.Errorf("n=%d: got p%v ok=%v, want p%v", tc.n, pct, ok, tc.pct)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range sorted {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it, want at least 10", tc.n, pct, beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestQuietSlicesNormalizeAndLeaveOutTheDisturbedOnes(t *testing.T) {
	// 30 slices of ten 10 ms operations by one caller that computes all the
	// time; in the middle ten the host runs at half speed: the reference and
	// the operations take twice as long.
	var slices []slice
	for i := 0; i < 30; i++ {
		slow := time.Duration(1)
		if i >= 10 && i < 20 {
			slow = 2
		}
		s := slice{ref: slow * refNominal, busy: 1, ops: 10, callerTime: slow * 100 * time.Millisecond}
		for o := 0; o < 10; o++ {
			s.times = append(s.times, slow*10*time.Millisecond)
		}
		slices = append(slices, s)
	}
	quiet := quietSlices(slices)
	if len(quiet) != 10 {
		t.Fatalf("%d quiet slices of 30, want 10", len(quiet))
	}
	for _, s := range quiet {
		if s.ref != refNominal {
			t.Errorf("a slice with reference %v counts as quiet", s.ref)
		}
	}
	// Normalizing alone already undoes a slowdown the reference shares.
	for name, set := range map[string][]slice{"quiet": quiet, "all": slices, "disturbed": slices[10:20]} {
		if p50, qps := normalizedMedian(set), normalizedRate(set, 1); math.Abs(p50-0.010) > 1e-12 || math.Abs(qps-100) > 1e-9 {
			t.Errorf("%s slices: %v s, %v op/s; want 0.010 s, 100 op/s", name, p50, qps)
		}
	}
	// An operation that waits 6 ms and computes 4 ms takes 14 ms at half
	// speed, 4/7 of it busy: only the busy share is scaled back.
	waiting := []slice{{ref: 2 * refNominal, busy: 4.0 / 7, times: []time.Duration{14 * time.Millisecond}}}
	if p50 := normalizedMedian(waiting); math.Abs(p50-0.010) > 1e-12 {
		t.Errorf("waiting operation: %v s, want 0.010 s", p50)
	}
	// Two callers, each busy for its own 100 ms, complete twice as much.
	two := []slice{{ref: refNominal, busy: 1, ops: 20, callerTime: 200 * time.Millisecond}}
	if qps := normalizedRate(two, 2); math.Abs(qps-200) > 1e-9 {
		t.Errorf("two callers: %v op/s, want 200", qps)
	}
	if got := quietSlices(slices[:1]); len(got) != 1 {
		t.Errorf("one slice: %d quiet, want 1", len(got))
	}
}

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "b overlaps a", StartNs: 20, EndNs: 50, Parent: 0},
		{Name: "c runs past root", StartNs: 90, EndNs: 120, Parent: 0},
		{Name: "grandchild", StartNs: 12, EndNs: 18, Parent: 1},
		{Name: "other root", StartNs: 200, EndNs: 260, Parent: -1},
	}
	// root: 100 − ([10,50] ∪ [90,100]) = 50; a: 20 − 6; the rest keep theirs.
	want := []int64{50, 14, 30, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestClassifyBuiltins pins the operator classes of the nine built-in
// networks: every node lands in a known class, and the counts the workload
// rationales quote hold.
func TestClassifyBuiltins(t *testing.T) {
	known := map[string]bool{}
	for _, c := range opClasses {
		known[c] = true
	}
	want := map[string]map[string]int{
		"mobilenet-v1":    {"conv1x1": 13, "conv_dw": 13, "conv3x3": 1, "fc": 1, "pool": 1, "softmax": 1},
		"squeezenet-v1.1": {"conv1x1": 17, "conv3x3": 9, "pool": 4, "layout": 9, "softmax": 1},
		"transformer":     {"matmul": 17, "gelu": 2, "softmax": 3, "layernorm": 4, "elementwise": 4},
	}
	nets := mnn.Networks()
	if len(nets) != 9 {
		t.Fatalf("expected the nine built-ins, have %v", nets)
	}
	for _, net := range nets {
		g, err := mnn.BuildNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := mnn.Optimize(g); err != nil {
			t.Fatal(err)
		}
		shapes, err := graph.InferShapes(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, n := range g.Nodes {
			c := classify(n)
			if !known[c] {
				t.Fatalf("%s node %s: unknown class %q", net, n.Name, c)
			}
			counts[c]++
			if gs, ok := nodeGEMM(n, shapes); ok && gs.muls() != nodeMULs(n, shapes) {
				t.Errorf("%s node %s: GEMM %+v has %d multiplies, the node %d", net, n.Name, gs, gs.muls(), nodeMULs(n, shapes))
			}
			if strings.HasPrefix(c, "conv") || c == "fc" || c == "matmul" {
				if nodeMULs(n, shapes) <= 0 {
					t.Errorf("%s node %s (%s): no multiplies counted", net, n.Name, c)
				}
			}
		}
		for c, n := range want[net] {
			if counts[c] != n {
				t.Errorf("%s: %d %s nodes, want %d (all: %v)", net, counts[c], c, n, counts)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64} starting with a letter or digit", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			check(m.name)
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q is malformed", m.name, m.unit)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("metric %s: better = %q", m.name, m.better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in this
// package equal, name for name, in order.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", mf.Paths)
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", mf.RunSeconds)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, mf.Workloads[i].Name, mf.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in the package %v", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	same("end_to_end", mf.EndToEnd, endToEnd, true)
	same("per_layer", mf.PerLayer, perLayer, false)
}

// TestPassesEmitExactlyTheNamedMetrics runs both passes on the two cheapest
// workloads, one engine and one serve, with a very short window: the
// end-to-end pass must emit exactly the end-to-end names, the traced pass
// exactly the per-layer names, and the layers must add up to the whole.
func TestPassesEmitExactlyTheNamedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine and a server")
	}
	for _, name := range []string{"transformer_dyn_t1", "serve_transformer_c2"} {
		t.Run(name, func(t *testing.T) { checkPasses(t, workloadByName(name)) })
	}
}

func checkPasses(t *testing.T, w *workload) {
	fx, err := newFixture(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	tm := timing{warmup: 50 * time.Millisecond, window: 400 * time.Millisecond, slice: 50 * time.Millisecond}
	names := func(tab []metricDef) []string {
		out := make([]string, len(tab))
		for i, m := range tab {
			out[i] = m.name
		}
		sort.Strings(out)
		return out
	}
	keys := func(m map[string]float64) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	e2e := runEndToEnd(fx, tm)
	if e2e.err != nil || !e2e.Correct || e2e.Failed != 0 || e2e.Attempted == 0 {
		t.Fatalf("end-to-end pass: %+v", e2e)
	}
	if got, want := keys(e2e.Metrics), names(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("end-to-end pass emitted %v, want %v", got, want)
	}
	for name, v := range e2e.Metrics {
		if !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, must be positive", name, v)
		}
	}

	tr := newTracer(fx.w.name)
	pl := runPerLayer(fx, tm, tr)
	if pl.err != nil || !pl.Correct || pl.Failed != 0 {
		t.Fatalf("per-layer pass: err %v, failed %d/%d", pl.err, pl.Failed, pl.Attempted)
	}
	if got, want := keys(pl.Metrics), names(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("per-layer pass emitted %v, want %v", got, want)
	}
	var opSum float64
	for _, c := range opClasses {
		opSum += pl.Metrics["session.op."+c+"_ms"]
	}
	whole := pl.Metrics["mnn.infer_into_p50_ms"]
	if got := opSum + pl.Metrics["mnn.residual_frac"]*whole; math.Abs(got-whole) > 1e-9*whole {
		t.Errorf("Σ session.op.* + residual = %v, want mnn.infer_into_p50_ms = %v", got, whole)
	}
	if pl.Metrics["mnn.allocs_per_op"] != 0 {
		t.Errorf("mnn.allocs_per_op = %v, want 0", pl.Metrics["mnn.allocs_per_op"])
	}
	if w.srv != nil {
		m := pl.Metrics
		stages := m["serve.decode_us"] + m["serve.infer_with_us"] + m["serve.encode_us"] + m["serve.http_overhead_us"]
		if rtt := m["serve.http_rtt_us"]; !(rtt > 0) || math.Abs(stages-rtt) > 1e-9*rtt {
			t.Errorf("decode + infer_with + encode + http_overhead = %v, want serve.http_rtt_us = %v", stages, rtt)
		}
		if m["admission.shed"] != 0 {
			t.Errorf("admission.shed = %v, want 0", m["admission.shed"])
		}
		if m["serve.batch_flushes"] <= 0 || m["mesh.hop_overhead_us"] == 0 {
			t.Errorf("batched serve workload: batch_flushes %v, mesh.hop_overhead_us %v", m["serve.batch_flushes"], m["mesh.hop_overhead_us"])
		}
	}
	if len(tr.spans) == 0 {
		t.Error("the traced pass recorded no spans")
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(b[:bytes.IndexByte(b, '\n')], &first); err != nil || first.Workload != fx.w.name {
		t.Errorf("first trace line %q: %v", b[:bytes.IndexByte(b, '\n')], err)
	}
}

func TestCompareJudgesAgainstBounds(t *testing.T) {
	dir := t.TempDir()
	mk := func(file string, latency, qps float64) string {
		r := report{Schema: reportSchema, Repeat: 1, Workloads: map[string]*summary{"w": {
			Correct: true, Attempted: 10,
			Metrics: map[string]metricValue{
				"latency_p50_ms": {latency, "ms"},
				"throughput_qps": {qps, "op/s"},
			}}}}
		path := filepath.Join(dir, file)
		if err := writeJSON(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", 100, 50)
	bound := endToEnd[0].bound
	var out bytes.Buffer
	if regressed, err := compareReports(&out, base, mk("same.json", 100*(1+bound/2), 50*(1-bound/2))); err != nil || regressed {
		t.Errorf("inside the bounds: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareReports(&out, base, mk("slow.json", 100*(1+2*bound), 50))
	if err != nil || !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("latency past its bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareReports(&out, base, mk("fewer.json", 100, 50*(1-2*bound))); err != nil || !regressed {
		t.Errorf("throughput past its bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if w := worsening(50, 60, "higher"); w >= 0 {
		t.Errorf("higher-is-better metric that rose: worsening %v, want negative", w)
	}
}
