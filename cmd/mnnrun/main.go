// Command mnnrun loads a model and runs inference through the v2 Engine
// API, reporting latency, pre-inference decisions and (optionally) the
// Equation 5 simulated time on a named device profile. With -check it also
// validates the engine output against the naive reference interpreter.
//
//	mnnrun -in model.mnng -threads 4 -runs 10
//	mnnrun -net mobilenet-v1 -device MI6 -forward auto -simulate
//	mnnrun -net resnet-18 -check
//	mnnrun -net mobilenet-v1 -pool 4 -inflight 4 -runs 16   # concurrent
//	mnnrun -net inception-v3 -timeout 100ms                 # cancellation
//	mnnrun -net resnet-18 -tuning measured -tuning-cache /tmp/rn18.tuning
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"mnn"
	"mnn/internal/loadgen"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

func main() {
	binIn := flag.String("in", "", "binary model path")
	net := flag.String("net", "", "built-in network name instead of -in")
	threads := flag.Int("threads", 4, "CPU threads per pooled session")
	runs := flag.Int("runs", 10, "timed runs (after one warm-up, as in the paper)")
	deviceName := flag.String("device", "", "simulated device profile (see -list-devices)")
	forward := flag.String("forward", "cpu", "backend: auto, cpu, metal, opencl, opengl, vulkan")
	precision := flag.String("precision", "fp32", "execution precision: fp32 or int8")
	tuning := flag.String("tuning", "heuristic", "kernel search: heuristic, cost or measured")
	tuningCache := flag.String("tuning-cache", "", "persistent tuning-cache file for -tuning measured")
	simulate := flag.Bool("simulate", false, "report Equation 5 simulated time")
	check := flag.Bool("check", false, "compare output against the reference interpreter")
	profile := flag.Bool("profile", false, "print a per-operator timing breakdown: each op's median over -runs profiled runs")
	pool := flag.Int("pool", 1, "prepared sessions held by the engine")
	inflight := flag.Int("inflight", 1, "concurrent inference goroutines for the timed runs")
	timeout := flag.Duration("timeout", 0, "per-inference deadline (0 = none)")
	listDevices := flag.Bool("list-devices", false, "list device profiles and exit")
	flag.Parse()

	if *listDevices {
		for _, d := range mnn.Devices() {
			fmt.Println(d)
		}
		return
	}

	// -in always loads a file; a bare name only ever resolves to the zoo.
	var model any
	switch {
	case *binIn != "":
		g, err := mnn.LoadGraphFile(*binIn)
		if err != nil {
			fail(err)
		}
		model = g
	case *net != "":
		model = *net
	default:
		fmt.Fprintln(os.Stderr, "mnnrun: -in or -net is required")
		os.Exit(2)
	}
	if *runs < 1 {
		fail(fmt.Errorf("-runs must be >= 1, got %d", *runs))
	}
	if *inflight < 1 {
		fail(fmt.Errorf("-inflight must be >= 1, got %d", *inflight))
	}

	ft, err := mnn.ParseForwardType(*forward)
	if err != nil {
		fail(err)
	}
	prec, err := mnn.ParsePrecision(*precision)
	if err != nil {
		fail(err)
	}
	tm, err := mnn.ParseTuningMode(*tuning)
	if err != nil {
		fail(err)
	}
	opts := []mnn.Option{
		mnn.WithThreads(*threads),
		mnn.WithForwardType(ft),
		mnn.WithPoolSize(*pool),
		mnn.WithPrecision(prec),
		mnn.WithTuning(tm),
		mnn.WithTuningCache(*tuningCache),
	}
	if *deviceName != "" {
		opts = append(opts, mnn.WithDevice(*deviceName))
	}
	if *simulate {
		opts = append(opts, mnn.WithSimulatedClock())
	}

	t0 := time.Now()
	eng, err := mnn.Open(model, opts...)
	if err != nil {
		fail(err)
	}
	defer eng.Close()
	fmt.Printf("pre-inference: %.1f ms (%d pooled sessions)\n",
		float64(time.Since(t0).Microseconds())/1000, eng.PoolSize())

	st := eng.Stats()
	fmt.Printf("schemes: %v\n", st.SchemeCounts)
	if tm != mnn.TuningHeuristic {
		ts := eng.TuningStats()
		fmt.Printf("tuning: %s — %d conv ops, %d unique shapes, %d cache hits, %d measured\n",
			ts.Mode, ts.ConvOps, ts.Unique, ts.CacheHits, ts.Measured)
	}
	backends := map[string]int{}
	for _, b := range st.Assignment {
		backends[b]++
	}
	fmt.Printf("backend assignment: %v (cross-backend copies: %d)\n", backends, st.CrossBackendCopies)
	for name, floats := range st.ArenaFloats {
		fmt.Printf("arena[%s]: %.1f MB", name, float64(floats)*4/(1<<20))
		if name == "CPU" {
			fmt.Printf(" (concats in place: %d)", st.InPlaceConcats)
		}
		fmt.Println()
	}

	newCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}
	infer := func(inputs map[string]*mnn.Tensor) (map[string]*mnn.Tensor, error) {
		ctx, cancel := newCtx()
		defer cancel()
		return eng.Infer(ctx, inputs)
	}

	// Fill inputs deterministically.
	inputs := map[string]*mnn.Tensor{}
	for _, name := range eng.InputNames() {
		in := mnn.NewTensor(eng.InputShape(name)...)
		tensor.FillRandom(in, 1, 1)
		inputs[name] = in
	}

	// Warm-up + timed runs (paper Section 4.1's protocol), optionally with
	// several requests in flight against the session pool.
	if _, err := infer(inputs); err != nil {
		fail(err)
	}
	if *simulate {
		eng.ResetSimulatedClock()
	}
	var (
		mu      sync.Mutex
		outputs map[string]*mnn.Tensor
	)
	st2, err := loadgen.RunConcurrent(func() error {
		out, err := infer(inputs)
		if err != nil {
			return err
		}
		mu.Lock()
		outputs = out
		mu.Unlock()
		return nil
	}, loadgen.ConcurrentConfig{
		InFlight: *inflight, MinQueryCount: *runs, MaxQueryCount: *runs,
	})
	if err != nil {
		if errors.Is(err, mnn.ErrCancelled) {
			fail(fmt.Errorf("inference exceeded -timeout %v: %w", *timeout, err))
		}
		fail(err)
	}
	fmt.Printf("host latency: %.2f ms mean, %.2f ms p90 (%d runs, %d in flight)\n",
		float64(st2.MeanLatency.Microseconds())/1000,
		float64(st2.P90Latency.Microseconds())/1000, st2.QueryCount, *inflight)
	if *inflight > 1 {
		fmt.Printf("aggregate throughput: %.2f inferences/s\n", st2.QPSWithLoadgen)
	}
	if *simulate {
		fmt.Printf("simulated latency on %s: %.2f ms/run\n",
			*deviceName, eng.SimulatedMs()/float64(*runs))
	}

	if *check {
		ref, err := mnn.RunReference(eng.Graph(), inputs)
		if err != nil {
			fail(err)
		}
		worst := 0.0
		for _, name := range eng.OutputNames() {
			if d := tensor.MaxAbsDiff(ref[name], outputs[name]); d > worst {
				worst = d
			}
		}
		fmt.Printf("reference check: max |Δ| = %g\n", worst)
		if worst > 5e-3 {
			fail(fmt.Errorf("output mismatch vs reference: %g", worst))
		}
	}
	if *profile {
		// As many profiled runs as timed ones, after them: the timestamps
		// per step stay out of the host latency above.
		ps := make([]*mnn.Profile, *runs)
		for i := range ps {
			ctx, cancel := newCtx()
			_, ps[i], err = eng.InferProfiled(ctx, inputs)
			cancel()
			if err != nil {
				fail(err)
			}
		}
		p, err := session.MedianProfile(ps)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nprofile: each op's median over %d runs; their sum %.3f ms, host mean %.3f ms\n",
			*runs, float64(p.Total.Nanoseconds())/1e6, float64(st2.MeanLatency.Nanoseconds())/1e6)
		p.Dump(os.Stdout, 10)
	}
	for _, name := range eng.OutputNames() {
		fmt.Printf("output %q: %v\n", name, outputs[name])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mnnrun:", err)
	os.Exit(1)
}
