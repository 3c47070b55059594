// Command mnnserve exposes a Registry of prepared engines over the
// KServe-style /v2 HTTP protocol, with per-model shape-bucketed continuous
// batching.
//
//	mnnserve -addr :8500 -model mobilenet=mobilenet-v1,pool=4,threads=2
//	mnnserve -model sq=squeezenet-v1.1,maxbatch=8,maxlatency=5ms,buckets=4 \
//	         -model det=path/to/detector.mnng,shape=data:1x3x320x320
//	mnnserve -model mobilenet-v1 -max-batch 4        # global batching default
//
// Each -model flag is name=source[,key=value...]; a bare source serves under
// its own name. Keys: pool, threads, forward, device, precision (fp32/int8),
// tuning (heuristic/cost/measured), tuningcache (persistent tuning-cache
// path), maxbatch, maxlatency, buckets (how many input-shape queues the
// batcher tracks at once; every queue runs on one shared batch engine),
// shape=input:AxBxC... (repeatable; the batcher batches exactly this shape),
// maxshape=input:AxBxC... (repeatable; opens a dynamic engine planned once
// at the max shape — requests may then use any shape elementwise ≤ the
// max, and the batcher batches every such shape; mutually exclusive with
// shape), queue
// (admission queue depth; enables SLO-aware load shedding), concurrency,
// slo (latency budget, e.g. slo=50ms), priority (default class:
// high/normal/batch), degrade=int8 (route to a quantized engine under
// sustained overload), version (registry version; the model serves as
// name:version), default=true (pin this version for bare-name requests)
// and lazy=true (open engines on first request). Two -model flags naming
// the same name:version are rejected. With -memory-budget every model
// loads lazily and idle engines are evicted least-recently-used when the
// resident byte total exceeds the budget. Models can also be hot-loaded and
// unloaded at runtime through POST /v2/repository/models/{name}/load and
// /unload. Prometheus metrics are served on GET /metrics.
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// requests before closing the engines.
//
// For resilience testing, -chaos arms the deterministic fault-injection
// subsystem with a seeded schedule (see README "Fault tolerance"):
//
//	mnnserve -model mobilenet-v1 -chaos 'session.kernel=panic,p=0.01' -chaos-seed 7
//
// A model whose kernels keep panicking is quarantined after
// -quarantine-after contained panics and sheds requests with 503 +
// X-Model-Quarantined until -quarantine-cooldown elapses.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served only via -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mnn"
	"mnn/internal/fault"
	"mnn/internal/matmul"
	"mnn/serve"
	"mnn/serve/admission"
)

type modelSpec struct {
	name    string
	version string // empty = serve.DefaultVersion
	// setDefault pins this version as what bare-name requests resolve to.
	setDefault bool
	cfg        serve.ModelConfig
	// tuning/tuningCache are kept for the batching+measured validation in
	// main, which runs after the global -max-batch default is applied.
	tuning      string
	tuningCache string
}

// ref is the registry reference the spec loads under.
func (s modelSpec) ref() string {
	v := s.version
	if v == "" {
		v = serve.DefaultVersion
	}
	return serve.JoinRef(s.name, v)
}

// checkSpecs rejects two -model flags naming the same model version: the
// registry would hot-swap silently and the earlier definition would serve
// no traffic, which on a command line is always a typo.
func checkSpecs(specs []modelSpec) error {
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if seen[s.ref()] {
			return fmt.Errorf("duplicate -model name %q: each -model flag must use a distinct name (or a distinct version=)", s.ref())
		}
		seen[s.ref()] = true
	}
	return nil
}

// parseBytes parses a -memory-budget value: a plain byte count or a number
// with a KiB/MiB/GiB (or KB/MB/GB, decimal) suffix, e.g. "512MiB".
func parseBytes(v string) (int64, error) {
	suffixes := []struct {
		s    string
		mult int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"B", 1},
	}
	num, mult := strings.TrimSpace(v), int64(1)
	for _, suf := range suffixes {
		if strings.HasSuffix(num, suf.s) {
			num, mult = strings.TrimSpace(strings.TrimSuffix(num, suf.s)), suf.mult
			break
		}
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 1073741824, 512MiB, 1GiB)", v)
	}
	return int64(f * float64(mult)), nil
}

func main() {
	addr := flag.String("addr", ":8500", "listen address")
	pprofAddr := flag.String("pprof", "", "optional net/http/pprof listen address (e.g. localhost:6060); keep it off public interfaces")
	maxBatch := flag.Int("max-batch", 0, "default micro-batch size for models that don't set maxbatch= (0 disables batching)")
	maxLatency := flag.Duration("max-latency", serve.DefaultMaxLatency, "default cap on how long a queued request waits for batch-mates already on their way, for models that don't set maxlatency= (a queue nothing else can join is cut at once)")
	maxBuckets := flag.Int("max-buckets", 0, "default bound on the shape queues a batching model tracks at once, for models that don't set buckets= (0 = serve.DefaultMaxBuckets)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "grace period for draining in-flight requests on SIGINT/SIGTERM")
	memoryBudget := flag.String("memory-budget", "", "resident-engine byte budget (e.g. 512MiB, 1GiB); models load lazily on first request and idle ones are evicted LRU under pressure (empty = unlimited, eager loads)")
	chaos := flag.String("chaos", "", "fault-injection spec, e.g. 'session.kernel=panic,p=0.01;registry.load=error,count=1' (empty = disabled; see README)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the deterministic -chaos fault schedule")
	quarantineAfter := flag.Int("quarantine-after", serve.DefaultQuarantineAfter, "consecutive contained kernel panics before a model is quarantined (0 disables)")
	quarantineCooldown := flag.Duration("quarantine-cooldown", serve.DefaultQuarantineCooldown, "how long a quarantined model sheds requests before a half-open probe")
	var specs []modelSpec
	flag.Func("model", "model to serve: name=source[,key=value...] (repeatable; see package docs)", func(v string) error {
		s, err := parseModelSpec(v)
		if err != nil {
			return err
		}
		specs = append(specs, s)
		return nil
	})
	flag.Parse()
	if len(specs) == 0 {
		fail(fmt.Errorf("no models: pass at least one -model flag (or hot-load via the repository API after adding one)"))
	}
	if err := checkSpecs(specs); err != nil {
		fail(err)
	}

	reg := serve.NewRegistry()
	reg.SetQuarantinePolicy(*quarantineAfter, *quarantineCooldown)
	if *chaos != "" {
		// Armed before any Load so registry.load faults can hit eager loads
		// too. One injector for the whole process keeps count= budgets global.
		plan, err := fault.ParsePlan(*chaosSeed, *chaos)
		if err != nil {
			fail(err)
		}
		reg.SetFaultInjector(fault.NewInjector(plan))
		fmt.Printf("mnnserve: chaos armed (seed %d): %s\n", *chaosSeed, plan)
	}
	if *memoryBudget != "" {
		// Set before any Load: with a budget, every load is lazy and the
		// first request (not startup) opens the engines.
		budget, err := parseBytes(*memoryBudget)
		if err != nil {
			fail(fmt.Errorf("-memory-budget: %v", err))
		}
		reg.SetMemoryBudget(budget)
	}
	for _, s := range specs {
		// The global flags fill whichever knobs the spec left unset, so a
		// per-model maxbatch= still honours the global -max-latency and
		// vice versa.
		if s.cfg.Batch.MaxBatch == 0 {
			s.cfg.Batch.MaxBatch = *maxBatch
		}
		if s.cfg.Batch.MaxLatency <= 0 {
			s.cfg.Batch.MaxLatency = *maxLatency
		}
		if s.cfg.Batch.Buckets == 0 {
			s.cfg.Batch.Buckets = *maxBuckets
		}
		// Measured picks only repeat across the batched and unbatched
		// engines through a shared cache; without one the micro-batcher
		// could commit different algorithms and break the batched≡unbatched
		// bitwise guarantee.
		if mode, err := mnn.ParseTuningMode(s.tuning); err == nil &&
			mode == mnn.TuningMeasured && s.cfg.Batch.MaxBatch > 1 && s.tuningCache == "" {
			reg.Close()
			fail(fmt.Errorf("-model %q: tuning=measured with batching requires tuningcache=", s.name))
		}
		t0 := time.Now()
		if err := reg.Load(s.ref(), s.cfg); err != nil {
			reg.Close()
			fail(err)
		}
		if s.setDefault {
			name, version := serve.SplitRef(s.ref())
			if err := reg.SetDefault(name, version); err != nil {
				reg.Close()
				fail(err)
			}
		}
		m, _ := reg.Get(s.ref())
		batching := "off"
		if m.Batching() {
			buckets := s.cfg.Batch.Buckets
			if buckets <= 0 {
				buckets = serve.DefaultMaxBuckets
			}
			batching = fmt.Sprintf("%d within %v, %d shape buckets", s.cfg.Batch.MaxBatch, s.cfg.Batch.MaxLatency, buckets)
		}
		adm := "off"
		if m.Admission() {
			adm = fmt.Sprintf("queue %d", s.cfg.Admission.Queue)
			if s.cfg.Admission.SLO > 0 {
				adm += fmt.Sprintf(", slo %v", s.cfg.Admission.SLO)
			}
			if s.cfg.Admission.Degrade != "" {
				adm += ", degrade " + s.cfg.Admission.Degrade
			}
		}
		if m.Lazy() {
			fmt.Printf("mnnserve: registered %q lazily (engines open on first request, batching %s, admission %s)\n",
				s.ref(), batching, adm)
		} else {
			fmt.Printf("mnnserve: loaded %q (pre-inference %.0f ms, batching %s, admission %s)\n",
				s.ref(), float64(time.Since(t0).Milliseconds()), batching, adm)
		}
	}

	if *pprofAddr != "" {
		// Worker-pool scheduling, GC behaviour and goroutine counts under
		// load are all visible here (/debug/pprof/); see README "Profiling".
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mnnserve: pprof:", err)
			}
		}()
		fmt.Printf("mnnserve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	srv := serve.NewServer(reg)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Printf("mnnserve: serving %v on %s (%s kernels, int8 %s)\n", reg.Names(), *addr, matmul.KernelISA(), matmul.Int8ISA())

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
		fmt.Println("mnnserve: shutting down, draining in-flight requests...")
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fail(err)
		}
	}
	fmt.Println("mnnserve: bye")
}

// parseModelSpec parses one -model flag value.
func parseModelSpec(v string) (modelSpec, error) {
	parts := strings.Split(v, ",")
	head := parts[0]
	name, source := head, head
	if i := strings.Index(head, "="); i >= 0 {
		name, source = head[:i], head[i+1:]
	}
	if name == "" || source == "" {
		return modelSpec{}, fmt.Errorf("-model %q: want name=source[,key=value...]", v)
	}
	s := modelSpec{name: name, cfg: serve.ModelConfig{Model: source}}
	var lo serve.LoadOptions
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return modelSpec{}, fmt.Errorf("-model %q: option %q is not key=value", v, kv)
		}
		switch key {
		case "pool":
			n, err := strconv.Atoi(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: pool=%q: %v", v, val, err)
			}
			lo.PoolSize = n
		case "threads":
			n, err := strconv.Atoi(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: threads=%q: %v", v, val, err)
			}
			lo.Threads = n
		case "forward":
			lo.Forward = val
		case "device":
			lo.Device = val
		case "precision":
			lo.Precision = val
		case "tuning":
			lo.Tuning = val
		case "tuningcache":
			lo.TuningCache = val
		case "maxbatch":
			n, err := strconv.Atoi(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: maxbatch=%q: %v", v, val, err)
			}
			s.cfg.Batch.MaxBatch = n
		case "maxlatency":
			d, err := time.ParseDuration(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: maxlatency=%q: %v", v, val, err)
			}
			s.cfg.Batch.MaxLatency = d
		case "buckets":
			n, err := strconv.Atoi(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: buckets=%q: %v", v, val, err)
			}
			s.cfg.Batch.Buckets = n
		case "queue":
			n, err := strconv.Atoi(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: queue=%q: %v", v, val, err)
			}
			s.cfg.Admission.Queue = n
		case "concurrency":
			n, err := strconv.Atoi(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: concurrency=%q: %v", v, val, err)
			}
			s.cfg.Admission.Concurrency = n
		case "slo":
			d, err := time.ParseDuration(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: slo=%q: %v", v, val, err)
			}
			s.cfg.Admission.SLO = d
		case "priority":
			p, err := admission.ParsePriority(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: priority=%q: %v", v, val, err)
			}
			s.cfg.Admission.DefaultPriority = p
		case "degrade":
			s.cfg.Admission.Degrade = val
		case "version":
			if val == "" || strings.Contains(val, ":") {
				return modelSpec{}, fmt.Errorf("-model %q: version=%q: must be non-empty without ':'", v, val)
			}
			s.version = val
		case "default":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: default=%q: %v", v, val, err)
			}
			s.setDefault = b
		case "lazy":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return modelSpec{}, fmt.Errorf("-model %q: lazy=%q: %v", v, val, err)
			}
			s.cfg.Lazy = b
		case "shape":
			input, dims, ok := strings.Cut(val, ":")
			if !ok {
				return modelSpec{}, fmt.Errorf("-model %q: shape=%q: want input:AxBxC...", v, val)
			}
			var shape []int
			for _, d := range strings.Split(dims, "x") {
				n, err := strconv.Atoi(d)
				if err != nil {
					return modelSpec{}, fmt.Errorf("-model %q: shape=%q: %v", v, val, err)
				}
				shape = append(shape, n)
			}
			if lo.InputShapes == nil {
				lo.InputShapes = make(map[string][]int)
			}
			lo.InputShapes[input] = shape
		case "maxshape":
			input, dims, ok := strings.Cut(val, ":")
			if !ok {
				return modelSpec{}, fmt.Errorf("-model %q: maxshape=%q: want input:AxBxC...", v, val)
			}
			var shape []int
			for _, d := range strings.Split(dims, "x") {
				n, err := strconv.Atoi(d)
				if err != nil {
					return modelSpec{}, fmt.Errorf("-model %q: maxshape=%q: %v", v, val, err)
				}
				shape = append(shape, n)
			}
			if lo.MaxInputShapes == nil {
				lo.MaxInputShapes = make(map[string][]int)
			}
			lo.MaxInputShapes[input] = shape
		default:
			return modelSpec{}, fmt.Errorf("-model %q: unknown option %q (want pool, threads, forward, device, precision, tuning, tuningcache, maxbatch, maxlatency, shape, maxshape, queue, concurrency, slo, priority, degrade, version, default or lazy)", v, key)
		}
	}
	opts, err := lo.EngineOptions()
	if err != nil {
		return modelSpec{}, fmt.Errorf("-model %q: %v", v, err)
	}
	s.cfg.Options = opts
	s.tuning = lo.Tuning
	s.tuningCache = lo.TuningCache
	return s, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mnnserve:", err)
	os.Exit(1)
}
