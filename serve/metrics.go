package serve

import (
	"strconv"
	"sync"
	"time"

	"mnn/internal/metrics"
	"mnn/serve/admission"
)

// serverMetrics bundles the metric families one Registry exports on
// /metrics. All families are registered up front so every scrape shows the
// full schema; per-model children are created at model load time so a model
// is visible (with zeroes) before its first request.
//
// Children are keyed by registry model name and survive hot swaps — a
// reloaded model continues its counters, which is what Prometheus rate()
// queries want. Unloading a model freezes its series at their last values.
type serverMetrics struct {
	reg *metrics.Registry

	queueWait  *metrics.HistogramVec // mnn_queue_wait_seconds{model}
	inferDur   *metrics.HistogramVec // mnn_infer_duration_seconds{model}
	requests   *metrics.CounterVec   // mnn_requests_total{model,code}
	shed       *metrics.CounterVec   // mnn_shed_total{model,reason}
	queueDepth *metrics.GaugeVec     // mnn_queue_depth{model}
	queueCap   *metrics.GaugeVec     // mnn_queue_capacity{model}
	inflight   *metrics.GaugeVec     // mnn_inflight_requests{model}

	batchFlushes *metrics.CounterVec   // mnn_batch_flushes_total{model}
	batchedReqs  *metrics.CounterVec   // mnn_batched_requests_total{model}
	batchFill    *metrics.GaugeVec     // mnn_batch_fill_ratio{model}
	batchWait    *metrics.HistogramVec // mnn_batch_wait_seconds{model}
	batchCuts    *metrics.CounterVec   // mnn_batch_cuts_total{model,reason}

	bucketDepth  *metrics.GaugeVec   // mnn_batch_bucket_depth{model,bucket}
	bucketAge    *metrics.GaugeVec   // mnn_batch_bucket_age_seconds{model,bucket}
	bucketFill   *metrics.GaugeVec   // mnn_batch_bucket_fill_ratio{model,bucket}
	bucketCount  *metrics.GaugeVec   // mnn_batch_buckets{model}
	bucketEvicts *metrics.CounterVec // mnn_batch_bucket_evictions_total{model}

	degraded    *metrics.GaugeVec   // mnn_degraded{model}
	transitions *metrics.CounterVec // mnn_degrade_transitions_total{model}

	loads         *metrics.CounterVec // mnn_model_loads_total{model}
	evictions     *metrics.CounterVec // mnn_model_evictions_total{model}
	resident      *metrics.GaugeVec   // mnn_model_resident_bytes{model}
	residentTotal *metrics.Gauge      // mnn_resident_bytes
	memoryBudget  *metrics.Gauge      // mnn_memory_budget_bytes

	kernelPanics *metrics.CounterVec // mnn_kernel_panics_total{model}
	quarantines  *metrics.CounterVec // mnn_model_quarantines_total{model}
	quarantined  *metrics.GaugeVec   // mnn_model_quarantined{model}
}

// batchWaitBuckets resolve the batch wait from tens of microseconds (a cut
// when nothing else can join) up to windows of 100 ms.
var batchWaitBuckets = []float64{
	.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1,
}

func newServerMetrics() *serverMetrics {
	r := metrics.NewRegistry()
	return &serverMetrics{
		reg: r,
		queueWait: r.NewHistogram("mnn_queue_wait_seconds",
			"Time requests spent waiting for an execution slot, per model.", nil, "model"),
		inferDur: r.NewHistogram("mnn_infer_duration_seconds",
			"Inference execution time (after admission), per model.", nil, "model"),
		requests: r.NewCounter("mnn_requests_total",
			"Inference requests by model and HTTP status code; rate() of this is per-model QPS.",
			"model", "code"),
		shed: r.NewCounter("mnn_shed_total",
			"Requests rejected by admission control, by model and reason (queue_full, deadline).",
			"model", "reason"),
		queueDepth: r.NewGauge("mnn_queue_depth",
			"Requests currently waiting in the admission queue, per model.", "model"),
		queueCap: r.NewGauge("mnn_queue_capacity",
			"Admission queue capacity, per model (0 = admission control off).", "model"),
		inflight: r.NewGauge("mnn_inflight_requests",
			"Requests currently executing, per model.", "model"),
		batchFlushes: r.NewCounter("mnn_batch_flushes_total",
			"Micro-batcher flushes (full and partial), per model.", "model"),
		batchedReqs: r.NewCounter("mnn_batched_requests_total",
			"Requests that went through micro-batcher flushes, per model.", "model"),
		batchFill: r.NewGauge("mnn_batch_fill_ratio",
			"Cumulative micro-batch fill: batched requests / (flushes × max batch).", "model"),
		batchWait: r.NewHistogram("mnn_batch_wait_seconds",
			"Time a request spent in its shape bucket, from arrival at the batcher to the cut of its batch, per model.",
			batchWaitBuckets, "model"),
		batchCuts: r.NewCounter("mnn_batch_cuts_total",
			"Bucket queues cut into batches, by model and reason (full, idle, due, drain).", "model", "reason"),
		bucketDepth: r.NewGauge("mnn_batch_bucket_depth",
			"Requests queued in one shape bucket at scrape time.", "model", "bucket"),
		bucketAge: r.NewGauge("mnn_batch_bucket_age_seconds",
			"Age of the oldest request queued in one shape bucket at scrape time.", "model", "bucket"),
		bucketFill: r.NewGauge("mnn_batch_bucket_fill_ratio",
			"Cumulative per-bucket batch fill: batched requests / (flushes × max batch).", "model", "bucket"),
		bucketCount: r.NewGauge("mnn_batch_buckets",
			"Shape buckets currently tracked by the model's batcher.", "model"),
		bucketEvicts: r.NewCounter("mnn_batch_bucket_evictions_total",
			"Shape buckets evicted (engine closed) under the bucket bound, per model.", "model"),
		degraded: r.NewGauge("mnn_degraded",
			"1 while the model is routed to its degrade engine under sustained overload.", "model"),
		transitions: r.NewCounter("mnn_degrade_transitions_total",
			"Degrade state changes (either direction), per model.", "model"),
		loads: r.NewCounter("mnn_model_loads_total",
			"Engine loads per model (eager load, first lazy load, and every reload after eviction).",
			"model"),
		evictions: r.NewCounter("mnn_model_evictions_total",
			"Idle-model evictions under memory-budget pressure, per model.", "model"),
		resident: r.NewGauge("mnn_model_resident_bytes",
			"Byte-accounted size of the model's resident engines (0 while evicted).", "model"),
		residentTotal: r.NewGauge("mnn_resident_bytes",
			"Byte-accounted size of all resident engines in the registry.").With(),
		memoryBudget: r.NewGauge("mnn_memory_budget_bytes",
			"Configured memory budget (0 = unlimited, nothing is evicted).").With(),
		kernelPanics: r.NewCounter("mnn_kernel_panics_total",
			"Kernel panics contained by the crash barrier (request got a typed 500), per model.",
			"model"),
		quarantines: r.NewCounter("mnn_model_quarantines_total",
			"Times a model was quarantined after repeated kernel panics, per model.", "model"),
		quarantined: r.NewGauge("mnn_model_quarantined",
			"1 while the model is quarantined (requests fail fast with 503).", "model"),
	}
}

// modelMetrics holds one model's resolved children so the hot path never
// takes the family lookup lock, plus the micro-batch fill accounting.
type modelMetrics struct {
	sm   *serverMetrics
	name string

	queueWait     *metrics.Histogram
	inferDur      *metrics.Histogram
	queueDepth    *metrics.Gauge
	queueCap      *metrics.Gauge
	inflight      *metrics.Gauge
	degraded      *metrics.Gauge
	transitions   *metrics.Counter
	loads         *metrics.Counter
	evictions     *metrics.Counter
	residentBytes *metrics.Gauge
	kernelPanics  *metrics.Counter
	quarantines   *metrics.Counter
	quarantined   *metrics.Gauge
	batchWait     *metrics.Histogram // nil without batching

	mu       sync.Mutex
	flushes  uint64
	samples  uint64
	maxBatch int
	// seenBuckets tracks which bucket-label children exist so the series
	// of evicted buckets are deleted at the next scrape.
	seenBuckets map[string]bool
}

// forModel resolves (and zero-initializes) the children for one model.
func (sm *serverMetrics) forModel(name string, queueCap, maxBatch int) *modelMetrics {
	mm := &modelMetrics{
		sm: sm, name: name, maxBatch: maxBatch,
		queueWait:     sm.queueWait.With(name),
		inferDur:      sm.inferDur.With(name),
		queueDepth:    sm.queueDepth.With(name),
		queueCap:      sm.queueCap.With(name),
		inflight:      sm.inflight.With(name),
		degraded:      sm.degraded.With(name),
		transitions:   sm.transitions.With(name),
		loads:         sm.loads.With(name),
		evictions:     sm.evictions.With(name),
		residentBytes: sm.resident.With(name),
		kernelPanics:  sm.kernelPanics.With(name),
		quarantines:   sm.quarantines.With(name),
		quarantined:   sm.quarantined.With(name),
	}
	mm.queueDepth.Set(0)
	mm.queueCap.Set(float64(queueCap))
	mm.inflight.Set(0)
	mm.degraded.Set(0)
	mm.residentBytes.Set(0)
	mm.quarantined.Set(0)
	// Shed reasons appear with zeroes so dashboards see the series before
	// the first overload.
	sm.shed.With(name, admission.ReasonQueueFull)
	sm.shed.With(name, admission.ReasonDeadline)
	if maxBatch > 1 {
		sm.batchFlushes.With(name)
		sm.batchedReqs.With(name)
		sm.batchFill.With(name).Set(0)
		sm.bucketCount.With(name).Set(0)
		sm.bucketEvicts.With(name)
		mm.batchWait = sm.batchWait.With(name)
		for _, reason := range cutReasons {
			sm.batchCuts.With(name, reason)
		}
	}
	return mm
}

func (mm *modelMetrics) observeQueueWait(d time.Duration) { mm.queueWait.Observe(d.Seconds()) }
func (mm *modelMetrics) observeInfer(d time.Duration)     { mm.inferDur.Observe(d.Seconds()) }

func (mm *modelMetrics) observeShed(reason string) { mm.sm.shed.With(mm.name, reason).Inc() }

func (mm *modelMetrics) observeRequest(code int) {
	mm.sm.requests.With(mm.name, strconv.Itoa(code)).Inc()
}

// onDegrade is wired as the admission controller's OnDegrade callback.
func (mm *modelMetrics) onDegrade(degraded bool) {
	if degraded {
		mm.degraded.Set(1)
	} else {
		mm.degraded.Set(0)
	}
	mm.transitions.Inc()
}

// recordFlush is wired as the batcher's flush hook; it keeps the cumulative
// fill ratio current, counts the cut by reason and observes each member's
// batch wait.
func (mm *modelMetrics) recordFlush(bt *batch) {
	n := len(bt.reqs)
	for _, rq := range bt.reqs {
		mm.batchWait.Observe(bt.cutAt.Sub(rq.arrival).Seconds())
	}
	mm.sm.batchCuts.With(mm.name, bt.reason).Inc()
	mm.mu.Lock()
	mm.flushes++
	mm.samples += uint64(n)
	fill := float64(mm.samples) / (float64(mm.flushes) * float64(mm.maxBatch))
	mm.mu.Unlock()
	mm.sm.batchFlushes.With(mm.name).Inc()
	mm.sm.batchedReqs.With(mm.name).Add(float64(n))
	mm.sm.batchFill.With(mm.name).Set(fill)
}

// onBucketEvict is wired as the batcher's eviction hook.
func (mm *modelMetrics) onBucketEvict() { mm.sm.bucketEvicts.With(mm.name).Inc() }

// refreshBuckets publishes the batcher's per-bucket scrape-time gauges and
// deletes the series of buckets that no longer exist (evicted, or the
// whole batcher gone with an evicted model).
func (mm *modelMetrics) refreshBuckets(st batcherStats) {
	current := make(map[string]bool, len(st.buckets))
	for _, bs := range st.buckets {
		current[bs.sig] = true
		mm.sm.bucketDepth.With(mm.name, bs.sig).Set(float64(bs.depth))
		mm.sm.bucketAge.With(mm.name, bs.sig).Set(bs.oldestAge.Seconds())
		mm.sm.bucketFill.With(mm.name, bs.sig).Set(bs.fill)
	}
	mm.sm.bucketCount.With(mm.name).Set(float64(len(st.buckets)))
	mm.mu.Lock()
	prev := mm.seenBuckets
	mm.seenBuckets = current
	mm.mu.Unlock()
	for sig := range prev {
		if !current[sig] {
			mm.sm.bucketDepth.Delete(mm.name, sig)
			mm.sm.bucketAge.Delete(mm.name, sig)
			mm.sm.bucketFill.Delete(mm.name, sig)
		}
	}
}

// onLoad records one engine load (lifecycle counter + residency gauge).
func (mm *modelMetrics) onLoad(bytes int64) {
	mm.loads.Inc()
	mm.residentBytes.Set(float64(bytes))
}

// onKernelPanic records one contained kernel panic.
func (mm *modelMetrics) onKernelPanic() { mm.kernelPanics.Inc() }

// onQuarantineChange keeps the quarantine gauge current; entering a
// quarantine also bumps the episode counter.
func (mm *modelMetrics) onQuarantineChange(quarantined bool) {
	if quarantined {
		mm.quarantined.Set(1)
	} else {
		mm.quarantined.Set(0)
	}
}

// onQuarantine records the start of one quarantine episode.
func (mm *modelMetrics) onQuarantine() { mm.quarantines.Inc() }

// onEvict records one budget eviction.
func (mm *modelMetrics) onEvict(freed int64) {
	mm.evictions.Inc()
	mm.residentBytes.Set(0)
}

// refresh pulls scrape-time gauges from the admission controller.
func (mm *modelMetrics) refresh(ctrl *admission.Controller) {
	if ctrl == nil {
		return
	}
	st := ctrl.Stats()
	mm.queueDepth.Set(float64(st.Queued))
	mm.inflight.Set(float64(st.InFlight))
	if st.Degraded {
		mm.degraded.Set(1)
	} else {
		mm.degraded.Set(0)
	}
}
