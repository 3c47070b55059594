// Package bench implements the full benchmark harness: one experiment per
// table and figure of the paper's evaluation, each printing the paper's
// published value next to this reproduction's measured/simulated value.
//
// Two kinds of numbers appear (see DESIGN.md):
//   - "host" rows are real wall-clock measurements of this repository's
//     kernels on the machine running the benchmark;
//   - "sim" rows come from the Equation 5 device simulator (phone-grade
//     hardware being unavailable), which preserves the paper's relative
//     orderings by construction of the cost model.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Options controls experiment effort.
type Options struct {
	// Quick reduces repetitions/problem sizes for use inside `go test`.
	Quick bool
	// Out receives the formatted report (default os.Stdout at callers).
	Out io.Writer
	// Recorder, when non-nil, additionally collects machine-readable
	// results (mnnbench -json). Table output is unaffected.
	Recorder *Recorder
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// record emits one measurement into the recorder, if any.
func (o Options) record(experiment, kase string, nsPerOp, throughputQPS float64) {
	if o.Recorder != nil {
		o.Recorder.Record(experiment, kase, nsPerOp, throughputQPS)
	}
}

// Result is one machine-readable measurement row. Latency-style experiments
// fill NsPerOp; throughput-style experiments fill ThroughputQPS; the allocs
// experiment fills AllocsPerOp (where 0 is meaningful, AllocsMeasured is
// set). Zero means not applicable.
type Result struct {
	Experiment     string  `json:"experiment"`
	Case           string  `json:"case"`
	NsPerOp        float64 `json:"ns_per_op,omitempty"`
	ThroughputQPS  float64 `json:"throughput_qps,omitempty"`
	AllocsPerOp    float64 `json:"allocs_per_op,omitempty"`
	AllocsMeasured bool    `json:"allocs_measured,omitempty"`
	// P99Ns is the 99th-percentile latency of admitted requests (the
	// overload experiment; NsPerOp holds the mean elsewhere).
	P99Ns float64 `json:"p99_ns,omitempty"`
	// ShedRate is the fraction of issued requests rejected by admission
	// control (the overload experiment).
	ShedRate float64 `json:"shed_rate,omitempty"`
	// Availability is completed / issued over a soak window (the chaos
	// experiment: how much goodput survived the fault schedule).
	Availability float64 `json:"availability,omitempty"`
}

// Recorder accumulates Results across experiments. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	results []Result
}

// Record appends one result row.
func (r *Recorder) Record(experiment, kase string, nsPerOp, throughputQPS float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = append(r.results, Result{
		Experiment: experiment, Case: kase,
		NsPerOp: nsPerOp, ThroughputQPS: throughputQPS,
	})
}

// RecordAllocs appends one allocation-measurement row (with optional
// latency), marking zero allocations as a real measurement.
func (r *Recorder) RecordAllocs(experiment, kase string, allocsPerOp, nsPerOp float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = append(r.results, Result{
		Experiment: experiment, Case: kase,
		NsPerOp: nsPerOp, AllocsPerOp: allocsPerOp, AllocsMeasured: true,
	})
}

// RecordOverload appends one overload-experiment row: goodput of admitted
// requests, their p99 latency, and the shed rate.
func (r *Recorder) RecordOverload(experiment, kase string, goodputQPS, p99Ns, shedRate float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = append(r.results, Result{
		Experiment: experiment, Case: kase,
		ThroughputQPS: goodputQPS, P99Ns: p99Ns, ShedRate: shedRate,
	})
}

// RecordChaos appends one chaos-soak row: availability (completed/issued),
// goodput of completed requests, and their p99 latency.
func (r *Recorder) RecordChaos(experiment, kase string, availability, goodputQPS, p99Ns float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = append(r.results, Result{
		Experiment: experiment, Case: kase,
		Availability: availability, ThroughputQPS: goodputQPS, P99Ns: p99Ns,
	})
}

// Results returns a snapshot of everything recorded so far.
func (r *Recorder) Results() []Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Result(nil), r.results...)
}

// WriteJSON writes the recorded results as an indented JSON array — the
// BENCH_*.json format of the perf trajectory.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Results())
}

// medianOf runs fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = time.Since(t0)
	}
	// insertion sort; reps is tiny
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[len(times)/2]
}

// minOf runs fn reps times and returns the shortest duration: the estimate
// of a deterministic kernel's cost that a loaded host disturbs least.
func minOf(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < max(reps, 1); i++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Experiment names accepted by Run.
var Experiments = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
	"figure7", "figure8", "figure9",
	"ablation-strassen", "ablation-layout", "ablation-memory", "ablation-tile",
	"throughput", "serving", "overload", "bucketed", "transformer", "mesh", "allocs",
	"tuning", "chaos",
}

// Run dispatches one experiment by name.
func Run(name string, opt Options) error {
	switch name {
	case "table1":
		return Table1(opt)
	case "table2":
		return Table2(opt)
	case "table3":
		return Table3(opt)
	case "table4":
		return Table4(opt)
	case "table5":
		return Table5(opt)
	case "table6":
		return Table6(opt)
	case "table7":
		return Table7(opt)
	case "table8":
		return Table8(opt)
	case "figure7":
		return Figure7(opt)
	case "figure8":
		return Figure8(opt)
	case "figure9":
		return Figure9(opt)
	case "ablation-strassen":
		return AblationStrassen(opt)
	case "ablation-layout":
		return AblationLayout(opt)
	case "ablation-memory":
		return AblationMemory(opt)
	case "ablation-tile":
		return AblationTile(opt)
	case "throughput":
		return Throughput(opt)
	case "serving":
		return Serving(opt)
	case "overload":
		return Overload(opt)
	case "bucketed":
		return Bucketed(opt)
	case "transformer":
		return Transformer(opt)
	case "mesh":
		return Mesh(opt)
	case "allocs":
		return Allocs(opt)
	case "tuning":
		return Tuning(opt)
	case "chaos":
		return Chaos(opt)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments)
	}
}
