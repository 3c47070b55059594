package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mnn"
	"mnn/internal/fault"
	"mnn/internal/metrics"
	"mnn/serve/admission"
)

// Quarantine policy defaults: a model is pulled from rotation after this
// many kernel panics and held out for the cooldown, after which the next
// request probes it half-open (one success clears the record).
const (
	DefaultQuarantineAfter    = 3
	DefaultQuarantineCooldown = 30 * time.Second
)

// DefaultVersion is the version a model loads under when none is given, so
// version-less deployments keep working unchanged: "m" and "m:1" are the
// same model.
const DefaultVersion = "1"

// SplitRef splits a model reference "name[:version]" into its parts; the
// version is empty when the reference is bare (meaning "the default
// version").
func SplitRef(ref string) (name, version string) {
	if i := strings.LastIndex(ref, ":"); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return ref, ""
}

// JoinRef builds the canonical "name:version" reference.
func JoinRef(name, version string) string { return name + ":" + version }

// compareVersions orders versions numerically when both parse as integers
// (2 < 10), lexicographically otherwise, so "latest" resolution matches what
// operators expect from numbered versions.
func compareVersions(a, b string) int {
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	if aerr == nil && berr == nil {
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}

// BatchConfig tunes the per-model dynamic micro-batcher.
type BatchConfig struct {
	// MaxBatch is the largest number of single requests coalesced into one
	// batched run (and the batch size the shared batch engine is planned
	// for).
	// Values <= 1 disable batching: every request runs on the unbatched
	// engine directly.
	MaxBatch int
	// MaxLatency caps how long a queued request waits for batch-mates that
	// are already on their way (default 2ms when batching is enabled). A
	// bucket's queue is cut the moment it is full, or the moment no
	// admitted request could still join it and a dispatch worker is free,
	// so a lone request does not wait at all; the window only runs out
	// while other requests are approaching or both workers are busy. A
	// request whose effective deadline cannot afford the full window cuts
	// its batch early instead. Go timers sleep in whole milliseconds on
	// Linux: a sub-millisecond window costs ≈ 1.07 ms when it runs out.
	MaxLatency time.Duration
	// Buckets bounds how many input-shape queues the batcher tracks at
	// once (and so the bucket label's cardinality in /metrics); 0 means
	// DefaultMaxBuckets. A queue owns no engine: every queue's batches run
	// on the one shared batch engine. A new shape evicts the least-recently-
	// used idle queue; when every queue is busy the request falls through
	// to the unbatched engine.
	Buckets int
}

// validate rejects inconsistent batching configuration; failures wrap
// ErrBadRequest so the repository API maps them to HTTP 400.
func (b BatchConfig) validate() error {
	if b.Buckets < 0 {
		return fmt.Errorf("%w: batch buckets %d is negative", ErrBadRequest, b.Buckets)
	}
	return nil
}

// DefaultMaxLatency is the batching window used when BatchConfig enables
// batching without choosing one.
const DefaultMaxLatency = 2 * time.Millisecond

// AdmissionConfig enables SLO-aware admission control for one model: a
// bounded request queue with priority classes, deadline-aware load shedding
// (reject-early with HTTP 429 instead of timeout-late), and optional
// graceful degradation to a cheaper engine under sustained overload.
type AdmissionConfig struct {
	// Queue is the bounded queue depth in front of the engine. 0 disables
	// admission control entirely (and the other fields must be unset).
	Queue int
	// Concurrency is how many admitted requests execute at once. 0 derives
	// it from the engine: max(pool size, micro-batch size), so batching can
	// still fill whole batches.
	Concurrency int
	// SLO is the per-model latency budget measured from arrival; requests
	// that cannot meet it given the current backlog are shed immediately.
	// 0 means only explicit client deadlines shed.
	SLO time.Duration
	// DefaultPriority classes requests that don't send X-Request-Priority
	// (zero value: normal).
	DefaultPriority admission.Priority
	// Degrade, when "int8", opens a second engine at int8 precision and
	// routes traffic to it while the shed-rate EWMA exceeds
	// DegradeThreshold (routing back below half the threshold). Responses
	// served degraded carry `"precision": "int8"`.
	Degrade string
	// DegradeThreshold is the shed-rate EWMA trigger; 0 means 0.3.
	DegradeThreshold float64
}

// DefaultDegradeThreshold is the shed-rate EWMA above which a model with
// Degrade configured switches to its degrade engine.
const DefaultDegradeThreshold = 0.3

// ModelConfig describes one model for Registry.Load.
type ModelConfig struct {
	// Model is what mnn.Open accepts: a *mnn.Graph, a built-in network name
	// or model file path, or an io.Reader of the binary format.
	Model any
	// Options configure the unbatched engine (pool size, threads, forward
	// type, prepared input shapes, …). The shared batch engine, when
	// batching is enabled, reuses them with WithMaxInputShapes at
	// [MaxBatch, the unbatched engine's per-request maximum...] (its
	// declared shapes when it is static), on the CPU backend.
	Options []mnn.Option
	// Batch enables and tunes dynamic micro-batching.
	Batch BatchConfig
	// Admission enables and tunes SLO-aware admission control.
	Admission AdmissionConfig
	// Lazy defers opening the engines until the first request and makes the
	// model evictable under memory-budget pressure. A registry with a
	// memory budget treats every subsequent Load as lazy regardless.
	Lazy bool
}

// engines is the snapshot of one model's execution resources a request
// holds for its lifetime. Acquire under Model.lifeMu keeps it consistent
// with the lazy load/evict lifecycle: an evicted model can never close the
// engines a request already holds (the in-flight refcount blocks eviction).
type engines struct {
	eng        *mnn.Engine
	batcher    *batcher
	degradeEng *mnn.Engine
	ctrl       *admission.Controller
}

// Model is one versioned entry of a Registry: the unbatched engine plus an
// optional micro-batcher in front of a shared batch engine, an
// optional admission controller gating both, and an optional degrade engine
// for overload fallback. Lazy models open their engines on first request
// and may be evicted (engines closed, configuration kept) under memory
// pressure; the admission controller survives evictions so queue state and
// shed-rate EWMAs are continuous across reloads.
type Model struct {
	reg        *Registry
	name       string
	version    string
	cfg        ModelConfig
	lazy       bool
	defaultPri admission.Priority
	mm         *modelMetrics

	// lifeMu guards every lifecycle transition (load, evict, remove) and
	// the engine fields below. Requests snapshot the engines under it via
	// acquire; lifecycle transitions re-check the refcount under it, so a
	// request can never observe engines mid-teardown.
	lifeMu     sync.Mutex
	eng        *mnn.Engine
	batcher    *batcher
	degradeEng *mnn.Engine
	loaded     bool
	removed    bool
	bytes      int64
	// bytesApprox mirrors bytes for lock-free metric scrapes.
	bytesApprox int64

	// ctrl is created on first load and kept across evictions.
	ctrl atomic.Pointer[admission.Controller]

	// refs counts requests currently holding the engines; eviction skips
	// busy models. lastUsed drives LRU victim selection.
	refs     atomic.Int64
	lastUsed atomic.Int64 // unix nanos
	isLoaded atomic.Bool  // lock-free mirror of loaded for victim scans

	// Crash-containment record: panicCount accumulates kernel panics since
	// the last clean probe; quarantinedUntil (unix nanos, 0 = healthy)
	// fails requests fast while set; quarantineN counts quarantine
	// episodes for metrics and tests.
	panicCount       atomic.Int64
	quarantinedUntil atomic.Int64
	quarantineN      atomic.Int64

	// outputNames and tuning are cached at (re)load so handlers and tests
	// can read them without holding the lifecycle lock.
	outMu       sync.Mutex
	outputNames []string
	tuning      mnn.TuningStats
}

// Registry owns named, versioned models with hot load/unload. All methods
// are safe for concurrent use; Infer traffic against other models is never
// blocked by a Load (engine preparation happens outside the registry lock).
//
// With a memory budget set (SetMemoryBudget), models load lazily: Load
// registers the configuration, the first request opens the engines, and
// idle models are evicted least-recently-used when the byte-accounted
// resident set exceeds the budget. A warm tuning cache (mnn.WithTuningCache)
// makes reloads cheap — a cached Open runs no micro-benchmarks.
type Registry struct {
	mu       sync.Mutex
	models   map[string]map[string]*Model // name → version → model
	pinned   map[string]string            // name → pinned default version
	closed   bool
	budget   int64
	resident int64
	metrics  *serverMetrics

	// fault is the shared injector engines opened by this registry also
	// use, so count= budgets in a chaos plan are process-global.
	fault atomic.Pointer[fault.Injector]
	// qAfter / qCooldownNs are the quarantine policy (see
	// SetQuarantinePolicy); qAfter <= 0 disables quarantining.
	qAfter      atomic.Int64
	qCooldownNs atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		models:  make(map[string]map[string]*Model),
		pinned:  make(map[string]string),
		metrics: newServerMetrics(),
	}
	r.qAfter.Store(DefaultQuarantineAfter)
	r.qCooldownNs.Store(int64(DefaultQuarantineCooldown))
	return r
}

// SetFaultInjector arms deterministic fault injection (mnnserve -chaos):
// the registry.load site fires in its own loads, and every engine it opens
// afterwards shares the injector, so one plan's count= budgets span the
// whole process. A nil injector (the default) is a no-op.
func (r *Registry) SetFaultInjector(in *fault.Injector) { r.fault.Store(in) }

// FaultInjector returns the armed injector (nil when chaos is off).
func (r *Registry) FaultInjector() *fault.Injector { return r.fault.Load() }

// SetQuarantinePolicy tunes crash containment: a model that throws `after`
// kernel panics is quarantined — requests fail fast with
// ErrModelQuarantined (HTTP 503 + X-Model-Quarantined) — for `cooldown`,
// then the next request probes it half-open; a clean probe restores it.
// after <= 0 disables quarantining. The policy applies to all models.
func (r *Registry) SetQuarantinePolicy(after int, cooldown time.Duration) {
	r.qAfter.Store(int64(after))
	r.qCooldownNs.Store(int64(cooldown))
}

// Metrics exposes the registry's metric families (what the server renders
// on /metrics), e.g. for mounting into an existing metrics pipeline.
func (r *Registry) Metrics() *metrics.Registry { return r.metrics.reg }

// SetMemoryBudget bounds the bytes of resident (opened) engines. Models
// loaded after the budget is set open lazily on first request and are
// evicted least-recently-used while the resident set exceeds the budget;
// models busy with requests are never evicted, so a single model larger
// than the budget still serves (the budget is then overshot, not violated
// by refusing traffic). 0 disables the budget (the default: every Load
// opens eagerly and nothing is evicted).
func (r *Registry) SetMemoryBudget(bytes int64) {
	r.mu.Lock()
	r.budget = bytes
	r.mu.Unlock()
	r.metrics.memoryBudget.Set(float64(bytes))
	r.enforceBudget()
}

// MemoryBudget returns the configured budget (0 = unlimited).
func (r *Registry) MemoryBudget() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.budget
}

// ResidentBytes returns the byte-accounted size of all currently opened
// engines (weights + planned arenas across session pools).
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resident
}

// refreshMetrics pulls scrape-time gauges (queue depth, in-flight, degrade
// state, residency) from every model.
func (r *Registry) refreshMetrics() {
	r.mu.Lock()
	models := make([]*Model, 0, len(r.models))
	for _, vs := range r.models {
		for _, m := range vs {
			models = append(models, m)
		}
	}
	r.mu.Unlock()
	for _, m := range models {
		m.mm.refresh(m.ctrl.Load())
		m.mm.onQuarantineChange(m.Quarantined())
		if m.isLoaded.Load() {
			m.mm.residentBytes.Set(float64(atomic.LoadInt64(&m.bytesApprox)))
		} else {
			m.mm.residentBytes.Set(0)
		}
		if m.cfg.Batch.MaxBatch > 1 {
			// Zero stats while the batcher isn't resident clear the
			// per-bucket series instead of freezing them at stale values.
			bs, _ := m.batcherStats()
			m.mm.refreshBuckets(bs)
		}
	}
}

// validate rejects inconsistent admission configuration; every failure
// wraps ErrBadRequest so the repository API maps it to HTTP 400.
func (a AdmissionConfig) validate() error {
	if a.Queue < 0 {
		return fmt.Errorf("%w: admission queue depth %d is negative", ErrBadRequest, a.Queue)
	}
	if a.Degrade != "" && a.Degrade != "int8" {
		return fmt.Errorf("%w: unknown degrade mode %q (want \"int8\")", ErrBadRequest, a.Degrade)
	}
	if a.Queue == 0 && (a.SLO > 0 || a.Degrade != "" || a.Concurrency > 0 || a.DegradeThreshold > 0) {
		return fmt.Errorf("%w: admission options (slo, degrade, concurrency) require a queue depth > 0", ErrBadRequest)
	}
	return nil
}

// Load registers (and, unless lazy, opens) the model under ref
// ("name[:version]"; a bare name means version 1), replacing and closing
// any previous model with the same name and version — a hot swap: requests
// already inside the old engine finish, new requests see the new one.
func (r *Registry) Load(ref string, cfg ModelConfig) error {
	name, version := SplitRef(ref)
	if name == "" {
		return fmt.Errorf("%w: empty model name", ErrBadRequest)
	}
	if version == "" {
		version = DefaultVersion
	}
	if err := cfg.Admission.validate(); err != nil {
		return fmt.Errorf("serve: load %q: %w", ref, err)
	}
	if err := cfg.Batch.validate(); err != nil {
		return fmt.Errorf("serve: load %q: %w", ref, err)
	}
	if rdr, ok := cfg.Model.(io.Reader); ok {
		// The batcher (and any lazy reload) opens the model again; a stream
		// can only be consumed once, so resolve it to a graph up front.
		g, err := mnn.LoadGraph(rdr)
		if err != nil {
			return fmt.Errorf("serve: load %q: %w", ref, err)
		}
		cfg.Model = g
	}
	m := &Model{
		reg: r, name: name, version: version, cfg: cfg,
		lazy:       cfg.Lazy || r.MemoryBudget() > 0,
		defaultPri: cfg.Admission.DefaultPriority,
		mm:         r.metrics.forModel(JoinRef(name, version), cfg.Admission.Queue, cfg.Batch.MaxBatch),
	}
	if !m.lazy {
		m.lifeMu.Lock()
		err := m.loadLocked()
		m.lifeMu.Unlock()
		if err != nil {
			return err
		}
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		m.close()
		return ErrServerClosed
	}
	vs := r.models[name]
	if vs == nil {
		vs = make(map[string]*Model)
		r.models[name] = vs
	}
	old := vs[version]
	vs[version] = m
	r.mu.Unlock()
	if old != nil {
		old.close()
	}
	r.enforceBudget()
	return nil
}

// SetDefault pins the version a bare "name" reference resolves to. Without
// a pin the highest loaded version wins.
func (r *Registry) SetDefault(name, version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name][version]; !ok {
		return fmt.Errorf("%w: %q", ErrModelNotFound, JoinRef(name, version))
	}
	r.pinned[name] = version
	return nil
}

// defaultVersionLocked resolves the default version of name: the pinned
// version when set and still loaded, the highest loaded version otherwise.
func (r *Registry) defaultVersionLocked(name string) string {
	vs := r.models[name]
	if len(vs) == 0 {
		return ""
	}
	if p, ok := r.pinned[name]; ok {
		if _, live := vs[p]; live {
			return p
		}
	}
	best := ""
	for v := range vs {
		if best == "" || compareVersions(v, best) > 0 {
			best = v
		}
	}
	return best
}

// Unload removes and closes one model version (the default version for a
// bare name). In-flight inferences against it finish normally; later
// requests get ErrModelNotFound.
func (r *Registry) Unload(ref string) error {
	name, version := SplitRef(ref)
	r.mu.Lock()
	if version == "" {
		version = r.defaultVersionLocked(name)
	}
	m := r.models[name][version]
	if m != nil {
		delete(r.models[name], version)
		if len(r.models[name]) == 0 {
			delete(r.models, name)
			delete(r.pinned, name)
		} else if r.pinned[name] == version {
			delete(r.pinned, name)
		}
	}
	r.mu.Unlock()
	if m == nil {
		return fmt.Errorf("%w: %q", ErrModelNotFound, ref)
	}
	m.close()
	return nil
}

// Get looks up a model by reference; a bare name resolves the default
// version. Lazy models are returned whether or not their engines are
// currently resident — the first request loads them.
func (r *Registry) Get(ref string) (*Model, error) {
	name, version := SplitRef(ref)
	r.mu.Lock()
	if version == "" {
		version = r.defaultVersionLocked(name)
	}
	m := r.models[name][version]
	r.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, ref)
	}
	return m, nil
}

// Names lists the loaded model names (version-less), sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.models))
	for name := range r.models {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Refs lists every loaded "name:version" reference, sorted.
func (r *Registry) Refs() []string {
	r.mu.Lock()
	refs := make([]string, 0, len(r.models))
	for name, vs := range r.models {
		for v := range vs {
			refs = append(refs, JoinRef(name, v))
		}
	}
	r.mu.Unlock()
	sort.Strings(refs)
	return refs
}

// Versions lists the loaded versions of one model, sorted in version order.
func (r *Registry) Versions(name string) []string {
	r.mu.Lock()
	vs := make([]string, 0, len(r.models[name]))
	for v := range r.models[name] {
		vs = append(vs, v)
	}
	r.mu.Unlock()
	sort.Slice(vs, func(i, j int) bool { return compareVersions(vs[i], vs[j]) < 0 })
	return vs
}

// Close unloads every model and rejects further Loads.
func (r *Registry) Close() error {
	r.mu.Lock()
	models := r.models
	r.models = make(map[string]map[string]*Model)
	r.pinned = make(map[string]string)
	r.closed = true
	r.mu.Unlock()
	for _, vs := range models {
		for _, m := range vs {
			m.close()
		}
	}
	return nil
}

// enforceBudget evicts idle lazy models least-recently-used until the
// resident set fits the budget. Models with in-flight requests (or eagerly
// loaded ones) are never evicted; when everything over budget is busy the
// overshoot is tolerated until traffic drains.
func (r *Registry) enforceBudget() {
	skip := make(map[*Model]bool)
	for {
		r.mu.Lock()
		if r.budget <= 0 || r.resident <= r.budget {
			r.mu.Unlock()
			return
		}
		var victim *Model
		var oldest int64
		for _, vs := range r.models {
			for _, m := range vs {
				if skip[m] || !m.lazy || !m.isLoaded.Load() || m.refs.Load() > 0 {
					continue
				}
				if lu := m.lastUsed.Load(); victim == nil || lu < oldest {
					victim, oldest = m, lu
				}
			}
		}
		r.mu.Unlock()
		if victim == nil {
			return
		}
		if !victim.evict() {
			skip[victim] = true
		}
	}
}

// noteResident adjusts the registry's resident-byte accounting.
func (r *Registry) noteResident(delta int64) {
	r.mu.Lock()
	r.resident += delta
	total := r.resident
	r.mu.Unlock()
	r.metrics.residentTotal.Set(float64(total))
}

// Name returns the registry name of the model (without the version).
func (m *Model) Name() string { return m.name }

// Version returns the model's version.
func (m *Model) Version() string { return m.version }

// Ref returns the canonical "name:version" reference.
func (m *Model) Ref() string { return JoinRef(m.name, m.version) }

// Lazy reports whether the model participates in the lazy-load/evict
// lifecycle.
func (m *Model) Lazy() bool { return m.lazy }

// Loaded reports whether the model's engines are currently resident.
func (m *Model) Loaded() bool { return m.isLoaded.Load() }

// Engine exposes the unbatched engine (e.g. for direct in-process calls).
// It is nil while a lazy model is not resident.
func (m *Model) Engine() *mnn.Engine {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	return m.eng
}

// ResidentBytes is the byte-accounted size of the model's resident engines
// (0 while evicted or not yet loaded).
func (m *Model) ResidentBytes() int64 {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	return m.bytes
}

// TuningStats reports the kernel-search summary of the most recent engine
// load (zero value before the first load). After a reload against a warm
// tuning cache, Measured is 0 and CacheHits covers every signature.
func (m *Model) TuningStats() mnn.TuningStats {
	m.outMu.Lock()
	defer m.outMu.Unlock()
	return m.tuning
}

// OutputNames lists the model's declared outputs (cached at first load,
// stable across evictions; nil before a lazy model's first load).
func (m *Model) OutputNames() []string {
	m.outMu.Lock()
	defer m.outMu.Unlock()
	return append([]string(nil), m.outputNames...)
}

// Batching reports whether the dynamic micro-batcher is configured.
func (m *Model) Batching() bool { return m.cfg.Batch.MaxBatch > 1 }

// Admission reports whether admission control is configured.
func (m *Model) Admission() bool { return m.cfg.Admission.Queue > 0 }

// AdmissionStats snapshots the admission controller (zero Stats without
// admission control or before a lazy model's first load).
func (m *Model) AdmissionStats() admission.Stats {
	c := m.ctrl.Load()
	if c == nil {
		return admission.Stats{}
	}
	return c.Stats()
}

// Degraded reports whether the model is currently routing to its degrade
// engine.
func (m *Model) Degraded() bool {
	c := m.ctrl.Load()
	return c != nil && m.cfg.Admission.Degrade != "" && c.Degraded()
}

// DefaultPriority is the class for requests that don't choose one.
func (m *Model) DefaultPriority() admission.Priority { return m.defaultPri }

// QuarantinedError is the typed form of ErrModelQuarantined; Until lets
// the server compute a Retry-After for clients and the mesh router.
type QuarantinedError struct {
	Ref   string
	Until time.Time
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("serve: model %q quarantined after repeated kernel panics (until %s)",
		e.Ref, e.Until.Format(time.RFC3339))
}

func (e *QuarantinedError) Unwrap() error { return ErrModelQuarantined }

// Quarantined reports whether the model is currently held out of rotation
// (without clearing an expired quarantine — that happens on the next
// request's half-open probe).
func (m *Model) Quarantined() bool {
	until := m.quarantinedUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// KernelPanics is the count of contained kernel panics since the last
// clean half-open probe.
func (m *Model) KernelPanics() int64 { return m.panicCount.Load() }

// Quarantines counts quarantine episodes over the model's lifetime.
func (m *Model) Quarantines() int64 { return m.quarantineN.Load() }

// quarantineGate fails a request fast while the model is quarantined.
// After the cooldown it lets exactly the callers through (half-open): the
// quarantine record stays until a probe finishes cleanly, so a model that
// still panics re-quarantines immediately on the next panic.
func (m *Model) quarantineGate() error {
	until := m.quarantinedUntil.Load()
	if until == 0 {
		return nil
	}
	now := time.Now().UnixNano()
	if now < until {
		return &QuarantinedError{Ref: m.Ref(), Until: time.Unix(0, until)}
	}
	// Cooldown over: clear the window so probes flow, keep panicCount so
	// one more panic (count already ≥ after) re-quarantines instantly.
	if m.quarantinedUntil.CompareAndSwap(until, 0) {
		m.mm.onQuarantineChange(false)
	}
	return nil
}

// noteInferOutcome updates the crash-containment record after a request:
// a contained kernel panic counts toward quarantine; a clean inference
// wipes the record (closing any half-open probe window).
func (m *Model) noteInferOutcome(err error) {
	if err == nil {
		if m.panicCount.Load() != 0 {
			m.panicCount.Store(0)
		}
		return
	}
	if !errors.Is(err, mnn.ErrKernelPanic) {
		return
	}
	m.mm.onKernelPanic()
	n := m.panicCount.Add(1)
	after := m.reg.qAfter.Load()
	if after <= 0 || n < after {
		return
	}
	until := time.Now().Add(time.Duration(m.reg.qCooldownNs.Load())).UnixNano()
	if m.quarantinedUntil.CompareAndSwap(0, until) {
		m.quarantineN.Add(1)
		m.mm.onQuarantine()
		m.mm.onQuarantineChange(true)
	}
}

// loadLocked opens the model's engines (lifeMu held). The admission
// controller is created once and survives later evictions.
//
// Loading is atomic: every failure path — including the injected
// registry.load faults — leaves the model exactly as it was (no engine
// leaked, no state mutated), so a failed lazy load is retried cleanly by
// the next request.
func (m *Model) loadLocked() error {
	cfg := m.cfg
	fi := m.reg.fault.Load()
	if fi != nil {
		// The opened engines share the registry's injector so one chaos
		// plan spans load-time and infer-time sites with global budgets.
		cfg.Options = append(append([]mnn.Option(nil), cfg.Options...),
			mnn.WithFaultInjector(fi))
	}
	// "pre:" fires before any resource exists, "mid:" after the engines are
	// open — the window where a non-atomic load would leak or half-commit.
	if o := fi.Hit(fault.SiteRegistryLoad, "pre:"+m.Ref()); o != nil {
		if err := o.Apply(); err != nil {
			return fmt.Errorf("serve: load %q: %w", m.Ref(), err)
		}
	}
	eng, err := mnn.Open(cfg.Model, cfg.Options...)
	if err != nil {
		return fmt.Errorf("serve: load %q: %w", m.Ref(), err)
	}
	var b *batcher
	if cfg.Batch.MaxBatch > 1 {
		b, err = newBatcher(cfg, eng, batcherHooks{
			onFlush: m.mm.recordFlush,
			onEvict: m.mm.onBucketEvict,
		})
		if err != nil {
			eng.Close()
			return fmt.Errorf("serve: load %q: %w", m.Ref(), err)
		}
	}
	var deg *mnn.Engine
	if cfg.Admission.Degrade == "int8" {
		if eng.Precision() == mnn.PrecisionInt8 {
			if b != nil {
				b.close()
			}
			eng.Close()
			return fmt.Errorf("serve: load %q: %w: degrade=int8 on a model already executing int8", m.Ref(), ErrBadRequest)
		}
		deg, err = mnn.Open(cfg.Model, append(append([]mnn.Option(nil), cfg.Options...),
			mnn.WithPrecision(mnn.PrecisionInt8))...)
		if err != nil {
			if b != nil {
				b.close()
			}
			eng.Close()
			return fmt.Errorf("serve: load %q: opening int8 degrade engine: %w", m.Ref(), err)
		}
	}
	if o := fi.Hit(fault.SiteRegistryLoad, "mid:"+m.Ref()); o != nil {
		if err := o.Apply(); err != nil {
			if b != nil {
				b.close()
			}
			if deg != nil {
				deg.Close()
			}
			eng.Close()
			return fmt.Errorf("serve: load %q: %w", m.Ref(), err)
		}
	}
	if cfg.Admission.Queue > 0 && m.ctrl.Load() == nil {
		conc := cfg.Admission.Concurrency
		if conc <= 0 {
			conc = eng.PoolSize()
			if cfg.Batch.MaxBatch > conc {
				// Batching needs that many requests in flight at once or
				// full batches can never form.
				conc = cfg.Batch.MaxBatch
			}
		}
		threshold := cfg.Admission.DegradeThreshold
		if threshold <= 0 && cfg.Admission.Degrade != "" {
			threshold = DefaultDegradeThreshold
		}
		m.ctrl.Store(admission.New(admission.Config{
			Name:             m.Ref(),
			Depth:            cfg.Admission.Queue,
			Concurrency:      conc,
			SLO:              cfg.Admission.SLO,
			DegradeThreshold: threshold,
			OnDegrade:        m.mm.onDegrade,
		}))
	}
	m.eng, m.batcher, m.degradeEng = eng, b, deg
	m.loaded = true
	m.isLoaded.Store(true)
	m.bytes = engineSetBytes(eng, b, deg)
	atomic.StoreInt64(&m.bytesApprox, m.bytes)
	m.outMu.Lock()
	m.outputNames = eng.OutputNames()
	m.tuning = eng.TuningStats()
	m.outMu.Unlock()
	m.reg.noteResident(m.bytes)
	m.mm.onLoad(m.bytes)
	return nil
}

// engineSetBytes sums the byte accounting of a model's engines, all opened
// at load time (the batcher's shared engine included), so a model's
// resident bytes are fixed from Load to eviction. Weights of a shared graph
// are counted per engine — a deliberately conservative estimate, so the
// budget can under-fill but never silently over-fill.
func engineSetBytes(eng *mnn.Engine, b *batcher, deg *mnn.Engine) int64 {
	total := eng.MemoryBytes()
	if b != nil {
		total += b.shared.MemoryBytes()
	}
	if deg != nil {
		total += deg.MemoryBytes()
	}
	return total
}

// batcherStats snapshots the batcher's bucket table (ok=false while the
// model has no resident batcher).
func (m *Model) batcherStats() (batcherStats, bool) {
	m.lifeMu.Lock()
	b := m.batcher
	m.lifeMu.Unlock()
	if b == nil {
		return batcherStats{}, false
	}
	return b.stats(), true
}

// acquire snapshots the model's engines for one request, loading them
// first if the model is lazy and not resident. The returned snapshot stays
// valid until release: the refcount taken under lifeMu blocks eviction.
func (m *Model) acquire() (engines, error) {
	m.lifeMu.Lock()
	if m.removed {
		m.lifeMu.Unlock()
		return engines{}, fmt.Errorf("%w: %q", ErrModelNotFound, m.Ref())
	}
	loadedNow := false
	if !m.loaded {
		if err := m.loadLocked(); err != nil {
			m.lifeMu.Unlock()
			return engines{}, err
		}
		loadedNow = true
	}
	m.refs.Add(1)
	m.lastUsed.Store(time.Now().UnixNano())
	es := engines{eng: m.eng, batcher: m.batcher, degradeEng: m.degradeEng, ctrl: m.ctrl.Load()}
	m.lifeMu.Unlock()
	if loadedNow {
		// Budget enforcement never takes two model locks at once (we hold
		// none here), so concurrent loads cannot deadlock evicting each
		// other; our own refcount keeps the just-loaded engines safe.
		m.reg.enforceBudget()
	}
	return es, nil
}

// release drops the request's hold on the engines.
func (m *Model) release() { m.refs.Add(-1) }

// evict closes the engines of an idle resident model, keeping its
// configuration and admission controller for the next load. Reports false
// when the model is busy, already evicted, or removed.
func (m *Model) evict() bool {
	m.lifeMu.Lock()
	if !m.loaded || m.removed || m.refs.Load() > 0 {
		m.lifeMu.Unlock()
		return false
	}
	m.closeEnginesLocked()
	// Drop the references so graph weights and arenas of a by-name model
	// become collectable; the cached config reloads them on demand.
	m.eng, m.batcher, m.degradeEng = nil, nil, nil
	freed := m.bytes
	m.bytes = 0
	atomic.StoreInt64(&m.bytesApprox, 0)
	m.loaded = false
	m.isLoaded.Store(false)
	m.lifeMu.Unlock()
	m.reg.noteResident(-freed)
	m.mm.onEvict(freed)
	return true
}

// closeEnginesLocked tears down the batcher (draining its queue) before
// the engines (lifeMu held). The pointers are kept: a removed model's
// Engine() still hands out the closed engine (whose Infer reports
// ErrEngineClosed), which is what hot-swap callers observe; evict drops
// them separately.
func (m *Model) closeEnginesLocked() {
	if m.batcher != nil {
		m.batcher.close()
	}
	if m.degradeEng != nil {
		m.degradeEng.Close()
	}
	m.eng.Close()
}

// close removes the model for good: queued admission waiters are released
// first, then the engines are torn down. Idempotent.
func (m *Model) close() {
	m.lifeMu.Lock()
	if m.removed {
		m.lifeMu.Unlock()
		return
	}
	m.removed = true
	if c := m.ctrl.Load(); c != nil {
		c.Close()
	}
	var freed int64
	if m.loaded {
		m.closeEnginesLocked()
		freed = m.bytes
		m.bytes = 0
		atomic.StoreInt64(&m.bytesApprox, 0)
		m.loaded = false
		m.isLoaded.Store(false)
	}
	m.lifeMu.Unlock()
	if freed != 0 {
		m.reg.noteResident(-freed)
	}
}

// InferInfo describes how one request was served.
type InferInfo struct {
	// Precision is the execution precision of the path that served the
	// request ("fp32" or "int8"); it differs from the model's loaded
	// precision exactly when the request was served degraded.
	Precision string
	// Degraded is true when the request ran on the degrade engine.
	Degraded bool
	// QueueWait is how long the request waited for an execution slot.
	QueueWait time.Duration
}

// Infer runs one logical request at the model's default priority. With
// batching enabled, single-sample requests are coalesced into batched runs
// per input-shape bucket; requests that cannot occupy a batch slot (or
// whose shape cannot get a bucket) fall through to the unbatched engine.
func (m *Model) Infer(ctx context.Context, inputs map[string]*mnn.Tensor) (map[string]*mnn.Tensor, error) {
	out, _, err := m.InferWith(ctx, inputs, m.defaultPri)
	return out, err
}

// InferWith runs one logical request at the given priority through
// admission control (when configured): the request may be shed immediately
// with an error wrapping admission.ErrOverloaded, queued for a bounded
// time, or routed to the degrade engine under sustained overload. On a
// lazy model the first request (and the first after an eviction) also
// opens the engines.
func (m *Model) InferWith(ctx context.Context, inputs map[string]*mnn.Tensor, pri admission.Priority) (map[string]*mnn.Tensor, InferInfo, error) {
	if err := m.quarantineGate(); err != nil {
		return nil, InferInfo{}, err
	}
	es, err := m.acquire()
	if err != nil {
		return nil, InferInfo{}, err
	}
	defer m.release()
	info := InferInfo{Precision: es.eng.Precision().String()}
	if es.ctrl == nil {
		start := time.Now()
		out, err := es.infer(ctx, inputs)
		m.mm.observeInfer(time.Since(start))
		m.noteInferOutcome(err)
		return out, info, err
	}
	tk, err := es.ctrl.Acquire(ctx, pri)
	if err != nil {
		var oe *admission.OverloadError
		switch {
		case errors.As(err, &oe):
			m.mm.observeShed(oe.Reason)
		case errors.Is(err, admission.ErrClosed):
			err = fmt.Errorf("%w: %q unloading", ErrServerClosed, m.Ref())
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Same shape the engine reports for a context that dies
			// mid-inference, so clients see one cancellation error.
			err = fmt.Errorf("%w: %v", mnn.ErrCancelled, err)
		}
		return nil, info, err
	}
	m.mm.observeQueueWait(tk.QueueWait())
	info.QueueWait = tk.QueueWait()
	start := time.Now()
	var out map[string]*mnn.Tensor
	if es.degradeEng != nil && es.ctrl.Degraded() {
		info.Degraded = true
		info.Precision = es.degradeEng.Precision().String()
		out, err = es.degradeEng.Infer(ctx, inputs)
	} else {
		out, err = es.infer(ctx, inputs)
	}
	tk.Release()
	m.mm.observeInfer(time.Since(start))
	m.noteInferOutcome(err)
	return out, info, err
}

// infer is the pre-admission serving path: batcher when active, otherwise
// the unbatched engine.
func (es engines) infer(ctx context.Context, inputs map[string]*mnn.Tensor) (map[string]*mnn.Tensor, error) {
	if es.batcher != nil {
		return es.batcher.infer(ctx, inputs)
	}
	return es.eng.Infer(ctx, inputs)
}

// Metadata assembles the protocol metadata from the engine's declared
// inputs and outputs, loading a lazy model if needed (a metadata request
// warms the model). Output shapes are not reported: they depend on the
// request and the engine only exposes prepared input shapes.
func (m *Model) Metadata() (ModelMetadata, error) {
	es, err := m.acquire()
	if err != nil {
		return ModelMetadata{}, err
	}
	defer m.release()
	md := ModelMetadata{
		Name: m.name, Version: m.version, Platform: "mnn-go",
		Precision: es.eng.Precision().String(),
	}
	for _, in := range es.eng.InputNames() {
		md.Inputs = append(md.Inputs, TensorMetadata{
			Name: in, Datatype: DatatypeFP32, Shape: es.eng.InputShape(in),
		})
	}
	for _, out := range es.eng.OutputNames() {
		md.Outputs = append(md.Outputs, TensorMetadata{Name: out, Datatype: DatatypeFP32})
	}
	return md, nil
}
