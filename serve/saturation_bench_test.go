package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnn"
)

// BenchmarkBatcherSaturation drives 8 closed-loop callers into one batcher
// (MaxBatch 4, 2 ms window) and reports requests per second and the mean
// batch size: the transformer over three lengths, and squeezenet over three
// resolutions, each on its one shared batch engine (exact-n stacking).
//
//	go test -run '^$' -bench BatcherSaturation -benchtime 4000x ./serve/
func BenchmarkBatcherSaturation(b *testing.B) {
	squeezenet := []mnn.Option{mnn.WithPoolSize(2), mnn.WithThreads(1),
		mnn.WithMaxInputShapes(map[string][]int{"data": {1, 3, 48, 48}})}
	for _, c := range []struct {
		name, input string
		model       any
		opts        []mnn.Option
		shapes      [][]int // caller i sends shapes[i%len(shapes)]
	}{
		{"transformer", "tokens", "transformer", dynTransformerOptions(),
			[][]int{{1, 16, 32}, {1, 8, 32}, {1, 4, 32}}},
		{"squeezenet", "data", "squeezenet-v1.1", squeezenet,
			[][]int{{1, 3, 48, 48}, {1, 3, 40, 40}, {1, 3, 32, 32}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, err := mnn.Open(c.model, c.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			bt, err := newBatcher(ModelConfig{Model: c.model, Options: c.opts,
				Batch: BatchConfig{MaxBatch: 4, MaxLatency: 2 * time.Millisecond}},
				eng, batcherHooks{})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.close()
			const callers = 8
			var issued atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					in := map[string]*mnn.Tensor{c.input: randomInput(uint64(i+1), c.shapes[i%len(c.shapes)])}
					for issued.Add(1) <= int64(b.N) {
						if _, err := bt.infer(context.Background(), in); err != nil {
							b.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			var flushes, samples uint64
			bt.mu.Lock()
			for _, bkt := range bt.buckets {
				flushes += bkt.flushes
				samples += bkt.samples
			}
			bt.mu.Unlock()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			b.ReportMetric(float64(samples)/float64(flushes), "batch")
		})
	}
}
