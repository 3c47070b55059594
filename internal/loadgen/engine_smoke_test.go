package loadgen_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mnn"
	"mnn/internal/loadgen"
	"mnn/internal/tensor"
)

// driveEngine measures Engine.Infer throughput for mobilenet-v1 at the given
// pool size and in-flight request count.
func driveEngine(t *testing.T, poolSize, inFlight, queries int, opts ...mnn.Option) loadgen.Stats {
	t.Helper()
	eng, err := mnn.Open("mobilenet-v1", append([]mnn.Option{mnn.WithThreads(1), mnn.WithPoolSize(poolSize)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tensor.New(eng.InputShape("data")...)
	tensor.FillRandom(in, 1, 1)
	query := func() error {
		_, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		return err
	}
	if err := query(); err != nil { // warm up
		t.Fatal(err)
	}
	st, err := loadgen.RunConcurrent(query, loadgen.ConcurrentConfig{
		InFlight: inFlight, MinQueryCount: queries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEnginePoolThroughputSmoke is the -short loadgen smoke: with 4 requests
// in flight, a pool of 4 prepared sessions must serve them side by side
// where a pool of 1 serves them one after another. Each inference holds its
// session for an injected sleep sized from one measured warm request — eight
// times its compute, at least 20 ms — so the comparison rests on how many
// sessions run at once, not on how many idle CPUs a shared host has: pool 4
// must reach twice pool 1's throughput (four times, ideally), on one CPU too.
func TestEnginePoolThroughputSmoke(t *testing.T) {
	const inFlight, queries = 4, 8
	shape := mnn.WithInputShapes(map[string][]int{"data": {1, 3, 64, 64}})
	warm := driveEngine(t, 1, 1, 3, shape)
	hold := max(20*time.Millisecond, 8*warm.MinLatency)
	plan, err := mnn.ParseFaultPlan(1, fmt.Sprintf("engine.infer=latency:%v", hold))
	if err != nil {
		t.Fatal(err)
	}
	p1 := driveEngine(t, 1, inFlight, queries, shape, mnn.WithFaultPlan(plan))
	p4 := driveEngine(t, 4, inFlight, queries, shape, mnn.WithFaultPlan(plan))
	t.Logf("mobilenet-v1 at 64², warm request %v, sessions held %v, %d in flight: pool1 %.1f qps (p90 %v), pool4 %.1f qps (p90 %v)",
		warm.MinLatency, hold, inFlight, p1.QPSWithLoadgen, p1.P90Latency, p4.QPSWithLoadgen, p4.P90Latency)
	if p4.QPSWithLoadgen < 2*p1.QPSWithLoadgen {
		t.Fatalf("pool4 throughput %.1f qps is not twice pool1's %.1f qps", p4.QPSWithLoadgen, p1.QPSWithLoadgen)
	}
}

// TestEngineInFlightSweep drives Engine.Infer at 1/4/16 in-flight requests
// (the issue's throughput measurement) against a pooled engine and checks the
// generator stays healthy at every level; the throughput ordering itself is
// hardware-dependent, so it is logged rather than asserted.
func TestEngineInFlightSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep takes ~10s at mobilenet-v1 host latency; smoke covers -short")
	}
	eng, err := mnn.Open("mobilenet-v1", mnn.WithThreads(1), mnn.WithPoolSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tensor.New(1, 3, 224, 224)
	tensor.FillRandom(in, 1, 1)
	query := func() error {
		_, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
		return err
	}
	if err := query(); err != nil {
		t.Fatal(err)
	}
	for _, inFlight := range []int{1, 4, 16} {
		st, err := loadgen.RunConcurrent(query, loadgen.ConcurrentConfig{
			InFlight: inFlight, MinQueryCount: 8,
		})
		if err != nil {
			t.Fatalf("in-flight %d: %v", inFlight, err)
		}
		if st.QueryCount != 8 || st.QPSWithLoadgen <= 0 {
			t.Fatalf("in-flight %d: degenerate stats %+v", inFlight, st)
		}
		t.Logf("in-flight %2d: %.2f qps, p50 %v, p99 %v",
			inFlight, st.QPSWithLoadgen, st.P50Latency, st.P99Latency)
	}
}
