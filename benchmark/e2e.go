package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Phase lengths of a pass. The measured window is the -seconds flag; a
// -quick smoke run shrinks the rest with it.
type timing struct {
	warmup   time.Duration
	window   time.Duration
	slice    time.Duration // measured work between two reference measurements
	setupFor time.Duration // keep setting up until this much time is spent
}

func newTiming(seconds float64, quick bool) timing {
	t := timing{warmup: 2 * time.Second, window: time.Duration(seconds * float64(time.Second)),
		slice: 200 * time.Millisecond, setupFor: 1500 * time.Millisecond}
	if quick {
		t.warmup, t.setupFor = 300*time.Millisecond, 0
	}
	return t
}

// Cold set-ups per run: at least minSetups (three of them count, see
// quietShare), more while they are cheap (a 2 ms transformer set-up is noisy
// one at a time), never more than maxSetups.
const (
	minSetups = 9
	maxSetups = 100
)

// result is one pass over one workload.
type result struct {
	Correct     bool
	Attempted   int
	Failed      int
	Unresolved  bool // traced pass: the host probes before and after differ by more than driftLimit
	Metrics     map[string]float64
	Diagnostics map[string]float64
	err         error
	// What an end-to-end pass measured, kept for -samples.
	setups, slices []slice
}

// lanes is how many cores the workload keeps busy, and so how many the
// reference measurements next to it use.
func (w *workload) lanes() int {
	if w.srv != nil {
		return min(2, w.srv.clients)
	}
	return w.threads
}

// measureSetup times complete cold set-ups: model bytes → LoadGraph → Open
// (or Registry.Load and a listening server) → first correct result → close,
// each between two reference measurements.
func measureSetup(fx *fixture, t timing) ([]slice, error) {
	var setups []slice
	begin := time.Now()
	ref := measureRef(1)
	for len(setups) < minSetups || (time.Since(begin) < t.setupFor && len(setups) < maxSetups) {
		runtime.GC() // so one set-up does not pay for the previous one's garbage
		var s slice
		var took time.Duration
		var err error
		s, ref = measured(ref, 1, func() time.Duration {
			t0 := time.Now()
			err = fx.setUpOnce()
			took = time.Since(t0)
			return took
		})
		if err != nil {
			return nil, err
		}
		s.times = []time.Duration{took}
		setups = append(setups, s)
	}
	return setups, nil
}

// setUpOnce opens the system, runs its first operation and closes it.
func (fx *fixture) setUpOnce() error {
	sys, err := fx.open()
	if err != nil {
		return err
	}
	opErr := sys.op(0, 0)
	if err := sys.close(); err != nil {
		return err
	}
	if opErr != nil {
		return fmt.Errorf("first operation after set-up: %w", opErr)
	}
	return nil
}

// measureWindow drives the closed loops for the window in slices, with a
// reference measurement before and after each, continuing the operation
// count from `from`. It returns the slices and the window as one phase.
func measureWindow(sys system, clients, lanes int, t timing, from int) ([]slice, driveResult) {
	var slices []slice
	var all driveResult
	begin := time.Now()
	ref := measureRef(lanes)
	for time.Since(begin) < t.window {
		var run driveResult
		var s slice
		s, ref = measured(ref, lanes, func() time.Duration {
			run, from = drive(sys, clients, t.slice, from)
			return run.wall
		})
		s.times, s.ops, s.callerTime = run.latencies, len(run.latencies), run.callerTime
		slices = append(slices, s)

		all.latencies = append(all.latencies, run.latencies...)
		all.failed += run.failed
		if all.firstErr == nil {
			all.firstErr = run.firstErr
		}
		all.wall += run.wall
	}
	return slices, all
}

// runEndToEnd is the tracing-off pass: the four end-to-end metrics.
func runEndToEnd(fx *fixture, t timing) result {
	res := result{Metrics: map[string]float64{}, Diagnostics: map[string]float64{}}
	fail := func(err error) result { res.err = err; return res }

	before := probeHost()
	setups, err := measureSetup(fx, t)
	if err != nil {
		return fail(err)
	}
	sys, err := fx.open()
	if err != nil {
		return fail(err)
	}
	clients := 1
	if fx.w.srv != nil {
		clients = fx.w.srv.clients
	}
	warm, next := drive(sys, clients, t.warmup, 0)
	runtime.GC()
	slices, run := measureWindow(sys, clients, fx.w.lanes(), t, next)
	resident := sys.residentBytes()
	if err := sys.close(); err != nil {
		return fail(err)
	}
	after := probeHost()

	res.setups, res.slices = setups, slices
	res.Attempted = len(run.latencies)
	res.Failed = run.failed
	res.Correct = run.failed == 0 && warm.failed == 0 && res.Attempted > 0
	if res.err = run.firstErr; res.err == nil {
		res.err = warm.firstErr
	}
	quiet := quietSlices(slices)
	res.Metrics["latency_p50_ms"] = normalizedMedian(quiet) * 1e3
	res.Metrics["throughput_qps"] = normalizedRate(quiet, clients)
	res.Metrics["setup_s"] = normalizedMedian(quietSlices(setups))
	res.Metrics["resident_mib"] = float64(resident) / (1 << 20)

	lat := make([]float64, len(run.latencies))
	for i, l := range run.latencies {
		lat[i] = ms(l)
	}
	sort.Float64s(lat)
	refs, busy := make([]float64, len(slices)), make([]float64, len(slices))
	for i := range slices {
		refs[i], busy[i] = ms(slices[i].ref), slices[i].busy
	}
	d := res.Diagnostics
	d["e2e.latency_p50_wall_ms"] = median(lat)
	d["e2e.mean_wall_qps"] = float64(len(lat)) / run.wall.Seconds()
	d["e2e.samples"] = float64(len(lat))
	d["e2e.slices"] = float64(len(slices))
	d["e2e.setups"] = float64(len(setups))
	d["e2e.ref_nominal_ms"] = ms(refNominal)
	d["e2e.ref_p50_ms"] = median(refs)
	d["e2e.ref_quiet_ms"] = ms(quiet[len(quiet)-1].ref) // the slowest reference that still counted
	d["e2e.busy_share"] = median(busy)
	if pct, v, ok := tailPercentile(lat); ok {
		d["e2e.latency_tail_pct"], d["e2e.latency_tail_wall_ms"] = pct, v
	}
	noteProbes(&res, before, after)
	return res
}

// noteProbes records the host probes around a pass.
func noteProbes(res *result, before, after hostProbe) {
	d := res.Diagnostics
	d["host.flops_probe_gflops.before"], d["host.flops_probe_gflops.after"] = before.FlopsGFLOPS, after.FlopsGFLOPS
	d["host.copy_gbps.before"], d["host.copy_gbps.after"] = before.CopyGBps, after.CopyGBps
	d["host.drift_frac"] = drift(before, after)
}
