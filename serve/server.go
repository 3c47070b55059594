package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mnn"
	"mnn/serve/admission"
)

// Version is reported in GET /v2 server metadata.
const Version = "0.1.0"

// MaxBodyBytes caps infer/load request bodies (256 MiB — far above any
// realistic batch-1 tensor payload) so one client cannot OOM the server.
const MaxBodyBytes = 256 << 20

// LoadOptions is the JSON form of the engine options a client may set when
// hot-loading a model through the repository API. The zero value means the
// engine defaults. It is also what cmd/mnnserve parses its -model flags into.
type LoadOptions struct {
	PoolSize int `json:"pool_size,omitempty"`
	// Threads is the CPU worker-pool width per pooled session; 0 resolves
	// to mnn.DefaultThreads() = min(GOMAXPROCS, 4). Total worker
	// goroutines for a model ≈ PoolSize × Threads, held parked between
	// requests by the persistent scheduler.
	Threads int    `json:"threads,omitempty"`
	Forward string `json:"forward,omitempty"`
	Device  string `json:"device,omitempty"`
	// Precision selects the execution precision ("fp32" default, "int8"
	// runs the quantized kernel path — see mnn.WithPrecision).
	Precision string `json:"precision,omitempty"`
	// Tuning selects the kernel-search mode ("heuristic" default, "cost",
	// "measured" — see mnn.WithTuning). Measured tuning runs micro-benchmarks
	// during load unless TuningCache already holds this host's results.
	Tuning string `json:"tuning,omitempty"`
	// TuningCache is the persistent tuning-cache path on the server
	// (mnn.WithTuningCache); meaningful with Tuning "measured".
	TuningCache string           `json:"tuning_cache,omitempty"`
	InputShapes map[string][]int `json:"input_shapes,omitempty"`
	// MaxInputShapes opens a dynamic engine planned once at these maxima;
	// requests may then use any shape elementwise ≤ the max without
	// re-preparation (mnn.WithMaxInputShapes). Mutually exclusive with
	// InputShapes. With batching, every in-plan shape batches; with
	// InputShapes (or neither) only the declared shape does.
	MaxInputShapes map[string][]int `json:"max_input_shapes,omitempty"`
}

// EngineOptions converts the wire form into mnn.Open options.
func (o LoadOptions) EngineOptions() ([]mnn.Option, error) {
	var opts []mnn.Option
	if o.PoolSize > 0 {
		opts = append(opts, mnn.WithPoolSize(o.PoolSize))
	}
	if o.Threads > 0 {
		opts = append(opts, mnn.WithThreads(o.Threads))
	}
	if o.Forward != "" {
		ft, err := mnn.ParseForwardType(o.Forward)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		opts = append(opts, mnn.WithForwardType(ft))
	}
	if o.Device != "" {
		opts = append(opts, mnn.WithDevice(o.Device))
	}
	if o.Precision != "" {
		p, err := mnn.ParsePrecision(o.Precision)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		opts = append(opts, mnn.WithPrecision(p))
	}
	if o.Tuning != "" {
		m, err := mnn.ParseTuningMode(o.Tuning)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		opts = append(opts, mnn.WithTuning(m))
	}
	if o.TuningCache != "" {
		opts = append(opts, mnn.WithTuningCache(o.TuningCache))
	}
	if len(o.InputShapes) > 0 {
		opts = append(opts, mnn.WithInputShapes(o.InputShapes))
	}
	if len(o.MaxInputShapes) > 0 {
		if len(o.InputShapes) > 0 {
			return nil, fmt.Errorf("%w: input_shapes and max_input_shapes are mutually exclusive", ErrBadRequest)
		}
		opts = append(opts, mnn.WithMaxInputShapes(o.MaxInputShapes))
	}
	return opts, nil
}

// LoadRequest is the POST /v2/repository/models/{name}/load request body.
type LoadRequest struct {
	// Model is a built-in network name (see mnn.Networks()) or the path of
	// a serialized .mnng model file on the server.
	Model   string      `json:"model"`
	Options LoadOptions `json:"options"`
	// MaxBatch > 1 enables the dynamic micro-batcher at that batch size.
	MaxBatch int `json:"max_batch,omitempty"`
	// MaxLatencyMs caps, in milliseconds, how long a queued request waits
	// for batch-mates already on their way (default 2); a queue nothing
	// else can join is cut at once (see BatchConfig.MaxLatency).
	MaxLatencyMs float64 `json:"max_latency_ms,omitempty"`
	// Buckets bounds how many input-shape queues the micro-batcher tracks
	// at once (0 = default); a shape arriving while every queue is busy
	// falls through unbatched.
	Buckets int `json:"buckets,omitempty"`
	// Queue > 0 enables admission control: a bounded queue of that depth in
	// front of the engine, with overflow rejected as HTTP 429.
	Queue int `json:"queue,omitempty"`
	// SLOMs is the per-model latency budget in milliseconds; requests that
	// cannot meet it given the current backlog are shed immediately.
	SLOMs float64 `json:"slo_ms,omitempty"`
	// Priority is the default class for requests without an
	// X-Request-Priority header: "normal" (default), "high", or "batch".
	Priority string `json:"priority,omitempty"`
	// Degrade ("int8") routes to a quantized sibling engine while the
	// shed-rate EWMA stays above the degrade threshold.
	Degrade string `json:"degrade,omitempty"`
	// Version loads the model under name:version when the URL path carries
	// a bare name (default version "1"). A versioned path and a body
	// version must agree.
	Version string `json:"version,omitempty"`
	// Default pins this version as what bare-name references resolve to.
	Default bool `json:"default,omitempty"`
	// Lazy defers opening the engines until the first request and makes the
	// model evictable under the server's memory budget.
	Lazy bool `json:"lazy,omitempty"`
}

// ModelConfig converts the wire form into a registry load.
func (r LoadRequest) ModelConfig() (ModelConfig, error) {
	if r.Model == "" {
		return ModelConfig{}, fmt.Errorf("%w: load request missing \"model\"", ErrBadRequest)
	}
	if r.Options.TuningCache != "" {
		// The load API reads server paths (the model file) but must never
		// hand clients a write primitive: a tuning cache is created with
		// MkdirAll + rename at an arbitrary path. Operators set cache paths
		// via mnnserve -model flags; API loads still tune, non-persistently.
		return ModelConfig{}, fmt.Errorf("%w: tuning_cache cannot be set through the repository API (configure it server-side via mnnserve -model)", ErrBadRequest)
	}
	if mode, err := mnn.ParseTuningMode(r.Options.Tuning); err == nil &&
		mode == mnn.TuningMeasured && r.MaxBatch > 1 {
		// The micro-batcher's second engine must commit exactly the
		// unbatched engine's algorithms or batched results stop being
		// bitwise identical to unbatched ones. Measured picks are only
		// guaranteed to repeat across the two engines through a shared
		// tuning cache — which the API cannot set — so measured+batching is
		// operator-side configuration only.
		return ModelConfig{}, fmt.Errorf("%w: measured tuning with batching requires a shared tuning cache; configure both server-side via mnnserve -model (tuning=measured,tuningcache=...,maxbatch=...)", ErrBadRequest)
	}
	opts, err := r.Options.EngineOptions()
	if err != nil {
		return ModelConfig{}, err
	}
	pri, err := admission.ParsePriority(r.Priority)
	if err != nil {
		return ModelConfig{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return ModelConfig{
		Model:   r.Model,
		Options: opts,
		Batch: BatchConfig{
			MaxBatch:   r.MaxBatch,
			MaxLatency: time.Duration(r.MaxLatencyMs * float64(time.Millisecond)),
			Buckets:    r.Buckets,
		},
		Admission: AdmissionConfig{
			Queue:           r.Queue,
			SLO:             time.Duration(r.SLOMs * float64(time.Millisecond)),
			DefaultPriority: pri,
			Degrade:         r.Degrade,
		},
		Lazy: r.Lazy,
	}, nil
}

// Server is the HTTP front of a Registry. Create with NewServer, start with
// Serve or ListenAndServe, stop with Shutdown (which drains in-flight
// requests before closing the registry's engines).
type Server struct {
	reg      *Registry
	http     *http.Server
	notReady atomic.Bool
}

// NewServer wraps a registry. The server takes ownership of the registry:
// Shutdown closes it.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg}
	s.http = &http.Server{Handler: s.Handler()}
	return s
}

// Handler builds the protocol routing table. It can be mounted into an
// existing mux; the paths are absolute.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2", s.handleServerMetadata)
	mux.HandleFunc("GET /v2/health/live", s.handleLive)
	mux.HandleFunc("GET /v2/health/ready", s.handleReady)
	mux.HandleFunc("GET /v2/models", s.handleModelList)
	mux.HandleFunc("GET /v2/models/{name}", s.handleModelMetadata)
	mux.HandleFunc("GET /v2/models/{name}/ready", s.handleModelReady)
	mux.HandleFunc("POST /v2/models/{name}/infer", s.handleInfer)
	mux.HandleFunc("POST /v2/repository/models/{name}/load", s.handleLoad)
	mux.HandleFunc("POST /v2/repository/models/{name}/unload", s.handleUnload)
	mux.HandleFunc("DELETE /v2/repository/models/{name}", s.handleUnload)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return recoverHandler(mux)
}

// recoverHandler is the serving tier's outermost crash barrier: a panic
// that escapes a handler (the engine barriers convert kernel panics to
// errors long before this) turns into a 500 on this request instead of
// killing the connection's goroutine state machine mid-response.
// http.ErrAbortHandler is re-panicked — it is the sanctioned way to abort
// a response and net/http handles it quietly.
func recoverHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				// Best effort: if the handler already wrote headers this
				// write is a no-op and the client sees a torn body, which
				// is still strictly better than a crashed server.
				writeError(w, fmt.Errorf("%w: handler panic: %v", errInternalPanic, rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// errInternalPanic marks a handler panic caught by the outer barrier.
var errInternalPanic = errors.New("serve: internal error")

// handleMetrics renders the Prometheus text exposition: per-model latency
// histograms (queue wait + infer), queue depth/capacity, in-flight, shed
// and degrade counters, batch-fill ratio, and per-model request totals
// (rate() of which is QPS). Gauges are refreshed at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.refreshMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.metrics.reg.WriteText(w)
}

// Registry exposes the registry (e.g. to pre-load models before serving).
func (s *Server) Registry() *Registry { return s.reg }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return ErrServerClosed
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the server: readiness flips to 503, listeners
// close, in-flight requests drain (bounded by ctx), and only then are the
// registry's engines closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.notReady.Store(true)
	err := s.http.Shutdown(ctx)
	if cerr := s.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) handleServerMetadata(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ServerMetadata{
		Name:       "mnnserve",
		Version:    Version,
		Extensions: []string{"model_repository"},
	})
}

func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"live": true})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.notReady.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ModelList{Models: s.reg.Names(), Refs: s.reg.Refs()})
}

func (s *Server) handleModelMetadata(w http.ResponseWriter, r *http.Request) {
	m, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	md, err := m.Metadata()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, md)
}

func (s *Server) handleModelReady(w http.ResponseWriter, r *http.Request) {
	m, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	if m.Quarantined() {
		w.Header().Set("X-Model-Quarantined", "true")
		writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

// requestContext derives the inference context from the client's deadline
// headers: X-Request-Timeout (a Go duration, e.g. "250ms") is relative to
// arrival; X-Request-Deadline (RFC 3339 with fractional seconds) is
// absolute. The tighter of the two wins. Malformed values are 400s —
// silently ignoring a deadline would turn load shedding off for exactly the
// clients that asked for it.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if v := r.Header.Get("X-Request-Timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("%w: invalid X-Request-Timeout %q: want a positive Go duration like \"250ms\"", ErrBadRequest, v)
		}
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	if v := r.Header.Get("X-Request-Deadline"); v != "" {
		t, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			cancel()
			return nil, nil, fmt.Errorf("%w: invalid X-Request-Deadline %q: want RFC 3339, e.g. \"2026-01-02T15:04:05.999Z\"", ErrBadRequest, v)
		}
		outer := cancel
		var inner context.CancelFunc
		ctx, inner = context.WithDeadline(ctx, t)
		cancel = func() { inner(); outer() }
	}
	return ctx, cancel, nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	m, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	// Every outcome past model resolution lands in
	// mnn_requests_total{model,code}.
	writeErr := func(err error) {
		m.mm.observeRequest(writeError(w, err))
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeErr(err)
		return
	}
	defer cancel()
	pri := m.DefaultPriority()
	if v := r.Header.Get("X-Request-Priority"); v != "" {
		pri, err = admission.ParsePriority(v)
		if err != nil {
			writeErr(fmt.Errorf("%w: invalid X-Request-Priority: %v", ErrBadRequest, err))
			return
		}
	}
	var req InferRequest
	if err := readInferRequest(w, r, &req); err != nil {
		writeErr(err)
		return
	}
	inputs, err := req.DecodeInputs()
	if err != nil {
		writeErr(err)
		return
	}
	outputs, info, err := m.InferWith(ctx, inputs, pri)
	if err != nil {
		writeErr(err)
		return
	}
	// OutputNames is cached at load time (and stable across evictions), so
	// this never races a concurrent eviction closing the engine.
	resp, err := req.EncodeOutputs(m.Name(), m.OutputNames(), outputs)
	if err != nil {
		writeErr(err)
		return
	}
	resp.Precision = info.Precision
	writeJSON(w, http.StatusOK, resp)
	m.mm.observeRequest(http.StatusOK)
}

// bodyPool holds the buffers infer request bodies are read into: a body is
// garbage once decoded, and was most of what a request allocated.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readInferRequest reads the whole body, capped by MaxBodyBytes before
// anything is allocated for it, and decodes it without encoding/json.
func readInferRequest(w http.ResponseWriter, r *http.Request, req *InferRequest) error {
	if r.ContentLength > MaxBodyBytes {
		return fmt.Errorf("%w: request body of %d bytes is over the limit of %d", ErrBadRequest, r.ContentLength, MaxBodyBytes)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	// ReadFrom wants MinRead spare bytes to see the end of the body; without
	// them it doubles the buffer for the last, empty read.
	buf.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		return fmt.Errorf("%w: reading infer request: %v", ErrBadRequest, err)
	}
	return decodeInferRequest(buf.Bytes(), req)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: decoding load request: %v", ErrBadRequest, err))
		return
	}
	cfg, err := req.ModelConfig()
	if err != nil {
		writeError(w, err)
		return
	}
	ref := r.PathValue("name")
	if req.Version != "" {
		name, version := SplitRef(ref)
		if version != "" && version != req.Version {
			writeError(w, fmt.Errorf("%w: path version %q and body version %q disagree", ErrBadRequest, version, req.Version))
			return
		}
		ref = JoinRef(name, req.Version)
	}
	if err := s.reg.Load(ref, cfg); err != nil {
		writeError(w, err)
		return
	}
	if req.Default {
		name, version := SplitRef(ref)
		if version == "" {
			version = DefaultVersion
		}
		if err := s.reg.SetDefault(name, version); err != nil {
			writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": ref, "state": "loaded"})
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Unload(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": r.PathValue("name"), "state": "unloaded"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps typed errors onto protocol status codes with a JSON body
// and returns the code it wrote. Overload rejections additionally carry a
// Retry-After header with the admission controller's backlog-drain estimate.
func writeError(w http.ResponseWriter, err error) int {
	code := http.StatusInternalServerError
	var oe *admission.OverloadError
	switch {
	case errors.As(err, &oe):
		code = http.StatusTooManyRequests
		secs := int(math.Ceil(oe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, admission.ErrOverloaded):
		// Wrapped without the struct (shouldn't happen, but stay 429).
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrModelQuarantined):
		// The replica is healthy, this model is not: 503 plus a marker
		// header so the mesh router retries the request on another
		// replica instead of backing off against this one.
		code = http.StatusServiceUnavailable
		w.Header().Set("X-Model-Quarantined", "true")
		var qe *QuarantinedError
		if errors.As(err, &qe) {
			if secs := int(math.Ceil(time.Until(qe.Until).Seconds())); secs >= 1 {
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
		}
	case errors.Is(err, mnn.ErrKernelPanic):
		// Contained crash: the process and every other model are fine;
		// the request gets a typed 500.
		code = http.StatusInternalServerError
	case errors.Is(err, ErrModelNotFound), errors.Is(err, mnn.ErrUnknownNetwork):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadRequest), errors.Is(err, mnn.ErrInputShape),
		errors.Is(err, mnn.ErrShapeOutOfPlan),
		errors.Is(err, mnn.ErrUnknownDevice), errors.Is(err, mnn.ErrUnknownBackend):
		code = http.StatusBadRequest
	case errors.Is(err, ErrServerClosed), errors.Is(err, mnn.ErrEngineClosed),
		errors.Is(err, admission.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, mnn.ErrCancelled):
		// The client usually went away; 499-style, but stay standard.
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
	return code
}
