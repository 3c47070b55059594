// Command mnnserve exposes a Registry of prepared engines over the
// KServe-style /v2 HTTP protocol, with per-model shape-bucketed continuous
// batching.
//
//	mnnserve -addr :8500 -model mobilenet=mobilenet-v1,pool=4,threads=2
//	mnnserve -model sq=squeezenet-v1.1,maxbatch=8,maxlatency=5ms,buckets=4 \
//	         -model det=path/to/detector.mnng,shape=data:1x3x320x320
//	mnnserve -model mobilenet-v1 -max-batch 4        # global batching default
//
// Each -model flag is name=source[,key=value...], where source is a built-in
// network name or a .mnng path and a bare source serves under its own name.
// The keys are the fields of the repository API's load request; README
// "Per-model keys" lists each key beside its JSON field. Two -model flags
// naming the same name:version are rejected. With -memory-budget every model
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
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served only via -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mnn/internal/fault"
	"mnn/internal/matmul"
	"mnn/serve"
)

// modelSpec is one -model flag: the name it serves under and its load.
type modelSpec struct {
	name string
	req  serve.LoadRequest
}

// ref is the registry reference the spec loads under.
func (s modelSpec) ref() string {
	v := s.req.Version
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

// config fills the batching knobs the spec left unset from the global
// flags, so a per-model maxbatch= still honours the global -max-latency
// and vice versa, and converts the request.
func (s *modelSpec) config(maxBatch int, maxLatency time.Duration, maxBuckets int) (serve.ModelConfig, error) {
	if s.req.MaxBatch == 0 {
		s.req.MaxBatch = maxBatch
	}
	if s.req.MaxLatencyMs <= 0 {
		s.req.MaxLatencyMs = float64(maxLatency) / float64(time.Millisecond)
	}
	if s.req.Buckets == 0 {
		s.req.Buckets = maxBuckets
	}
	return s.req.Config()
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
	n := f * float64(mult)
	// float64(math.MaxInt64) rounds up to 2^63, so < keeps int64(n) in
	// range; NaN fails both comparisons.
	if err != nil || !(n >= 0 && n < math.MaxInt64) {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 1073741824, 512MiB, 1GiB)", v)
	}
	return int64(n), nil
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
		name, req, err := serve.ParseModelSpec(v)
		if err != nil {
			return err
		}
		specs = append(specs, modelSpec{name, req})
		return nil
	})
	flag.Parse()
	if len(specs) == 0 {
		fail(fmt.Errorf("no models: pass at least one -model flag (or hot-load via the repository API after adding one)"))
	}
	if err := checkSpecs(specs); err != nil {
		fail(err)
	}
	cfgs := make([]serve.ModelConfig, len(specs))
	for i := range specs {
		cfg, err := specs[i].config(*maxBatch, *maxLatency, *maxBuckets)
		if err != nil {
			fail(fmt.Errorf("-model %q: %v", specs[i].ref(), err))
		}
		cfgs[i] = cfg
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
	for i, s := range specs {
		t0 := time.Now()
		if err := reg.Load(s.ref(), cfgs[i]); err != nil {
			reg.Close()
			fail(err)
		}
		if s.req.Default {
			name, version := serve.SplitRef(s.ref())
			if err := reg.SetDefault(name, version); err != nil {
				reg.Close()
				fail(err)
			}
		}
		// The parsed request with the global defaults filled in (its fields
		// are all plain values, so Marshal cannot fail). It is a load-API
		// body except for options.tuning_cache, which only the operator sets;
		// max_latency_ms is filled even where batching is off, and unused.
		req, _ := json.Marshal(s.req)
		if m, _ := reg.Get(s.ref()); m.Lazy() {
			fmt.Printf("mnnserve: registered %q lazily (engines open on first request): %s\n", s.ref(), req)
		} else {
			fmt.Printf("mnnserve: loaded %q in %d ms: %s\n", s.ref(), time.Since(t0).Milliseconds(), req)
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mnnserve:", err)
	os.Exit(1)
}
