// Package tuner implements the paper's semi-automated kernel search: given
// a graph with fixed input sizes, it scores every legal algorithm for each
// convolution with a first-principles FLOP/bytes cost model, optionally
// refines the top candidates with on-device micro-benchmarks on the real
// shapes (closing the model–hardware gap), and persists the winners in a
// versioned per-host tuning cache so the next preparation is fast and
// deterministic. The heuristic of core.SelectConvScheme remains the
// zero-cost default; the tuner is the searchable, testable decision point
// that replaces it when a caller opts in.
package tuner

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"mnn/internal/core"
	"mnn/internal/fault"
	"mnn/internal/graph"
	"mnn/internal/sched"
)

// Mode selects how convolution algorithms are chosen.
type Mode int

const (
	// ModeHeuristic keeps the Equation 2–3 selection of core.SelectConvScheme.
	ModeHeuristic Mode = iota
	// ModeCost scores every legal candidate with the analytic cost model and
	// commits the argmin — no measurement, no cache.
	ModeCost
	// ModeMeasured micro-benchmarks the top-K cost-model candidates on the
	// real shapes and commits the fastest; results persist in the tuning
	// cache so later preparations skip the measurements entirely.
	ModeMeasured
)

func (m Mode) String() string {
	switch m {
	case ModeHeuristic:
		return "heuristic"
	case ModeCost:
		return "cost"
	case ModeMeasured:
		return "measured"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode maps a mode name (CLI flags, serve model specs) to its Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "heuristic", "off":
		return ModeHeuristic, nil
	case "cost", "model":
		return ModeCost, nil
	case "measured", "auto":
		return ModeMeasured, nil
	default:
		return ModeHeuristic, fmt.Errorf("tuner: unknown tuning mode %q (want heuristic, cost or measured)", s)
	}
}

// Config parameterizes a search.
type Config struct {
	// Mode selects the search depth. ModeHeuristic returns a nil plan.
	Mode Mode
	// Threads sizes the worker pool the micro-benchmarks dispatch on; it
	// should match the pool the engine will run with so measured ranking
	// reflects real parallel speedups. <1 means 1.
	Threads int
	// Int8 tells the search the engine will execute at int8 precision:
	// micro-benchmarks then time the quantized kernels for GEMM-lowered
	// candidates (what would actually run) instead of their fp32 twins, and
	// cache entries are keyed separately — an fp32 ranking must never decide
	// an int8 engine's schemes, and vice versa.
	Int8 bool
	// CachePath is the tuning-cache file (ModeMeasured only). Empty disables
	// persistence: measurements rerun on every preparation.
	CachePath string
	// ModelKey identifies the model inside the cache file; defaults to the
	// graph's name.
	ModelKey string
	// TopK bounds how many cost-ranked candidates are measured per unique
	// convolution signature (default 3).
	TopK int
	// Reps is the number of timed runs per measured candidate; the minimum
	// is kept (default 3).
	Reps int
	// Fault is the optional fault injector for the tuner.cache.read and
	// tuner.cache.write sites (nil disables injection).
	Fault *fault.Injector
}

// Report summarizes what a search did — the engine exposes it so tests can
// assert, for example, that a warm cache skipped every micro-benchmark.
type Report struct {
	// Mode is the search depth that ran.
	Mode string
	// ConvOps counts convolution nodes covered by decisions.
	ConvOps int
	// Unique counts distinct convolution signatures (the dedup unit).
	Unique int
	// CacheHits counts signatures resolved from the loaded cache.
	CacheHits int
	// Measured counts candidates actually micro-benchmarked.
	Measured int
	// CacheLoaded / CacheSaved report cache file activity.
	CacheLoaded bool
	CacheSaved  bool
	// CachePath echoes the cache location (empty when persistence is off).
	CachePath string
}

// Plan is the committed outcome of a search: one decision per convolution
// node, ready to override the heuristic during pre-inference.
type Plan struct {
	// Decisions maps node name → the algorithm to prepare.
	Decisions map[string]core.ConvDecision
	// Report summarizes the search.
	Report Report
}

// SchemeFor resolves a node's decision, falling back to the heuristic for
// nodes the plan does not cover (non-conv nodes, resized graphs). The
// signature matches optimizer.PlanInt8With's resolver.
func (p *Plan) SchemeFor(n *graph.Node, inShape []int) core.ConvDecision {
	if p != nil {
		if dec, ok := p.Decisions[n.Name]; ok {
			return dec
		}
	}
	return core.SelectConvScheme(n.Attrs.(*graph.Conv2DAttrs), inShape)
}

// ForceScheme adapts the plan to the cpu.Config.ForceScheme hook.
func (p *Plan) ForceScheme(n *graph.Node, dec core.ConvDecision) core.ConvDecision {
	if p != nil {
		if d, ok := p.Decisions[n.Name]; ok {
			return d
		}
	}
	return dec
}

// Kernel-family throughput factors for the analytic score: the packed-panel
// GEMM paths retire more multiply-equivalents per unit time than the scalar
// sliding loop — but only once the reduction depth K amortizes the panel
// packing (a K=27 stem conv gains nothing from the GEMM, which is why
// sliding wins small-channel stems, the paper's Table 1 first column).
// Calibrated coarsely against this repository's kernels; ModeMeasured
// supersedes these numbers with real timings.
const (
	gemmPeakEff  = 1.35 // asymptotic GEMM advantage over the sliding loop
	gemmHalfK    = 40.0 // reduction depth at which half the advantage is realized
	strassenEff  = 1.25 // 1×1 lowering (the pixel matrix is pre-flattened)
	winogradEff  = 1.0  // arith already counts the algorithmic savings
	directEff    = 1.0  // sliding / depthwise reference
	minStrassenK = 8    // below this the 1×1 GEMM degenerates like tiny-K im2col
)

// Score is the analytic cost of one candidate in multiply-equivalents:
// arithmetic scaled by the kernel family's achieved-throughput factor, plus
// the memory-traffic term weighted as in the Equation 2 extension.
func Score(c core.ConvCandidate) float64 {
	eff := directEff
	switch c.Decision.Scheme {
	case core.SchemeIm2col:
		k := float64(c.GemmK)
		eff = gemmPeakEff * k / (k + gemmHalfK)
	case core.SchemeStrassen1x1:
		eff = strassenEff
		if c.GemmK < minStrassenK {
			eff = gemmPeakEff * float64(c.GemmK) / (float64(c.GemmK) + gemmHalfK)
		}
	case core.SchemeWinograd:
		eff = winogradEff
	}
	if eff <= 0 {
		eff = 1.0
	}
	return c.Arith/eff + core.TrafficCostFactor*c.Traffic
}

// rankCandidates returns the candidates sorted by ascending analytic score.
func rankCandidates(cands []core.ConvCandidate) []core.ConvCandidate {
	ranked := append([]core.ConvCandidate(nil), cands...)
	sort.SliceStable(ranked, func(i, j int) bool { return Score(ranked[i]) < Score(ranked[j]) })
	return ranked
}

// convSite is one unique convolution signature and the nodes sharing it.
// normShape is inShape with the batch normalized to 1: algorithm legality
// is batch-independent, and deciding (and measuring) at batch 1 keeps the
// committed algorithm identical across batch sizes — the serving
// micro-batcher's second engine must pick exactly what the unbatched engine
// picked, or batched results would stop being bitwise identical to
// unbatched ones.
type convSite struct {
	sig       string
	attrs     *graph.Conv2DAttrs
	inShape   []int
	normShape []int
	nodes     []string
}

// collectSites groups the graph's convolutions by tuning signature, in
// first-appearance order so search work is deterministic.
func collectSites(g *graph.Graph, shapes graph.ShapeMap) []*convSite {
	var order []*convSite
	bySig := map[string]*convSite{}
	for _, n := range g.Nodes {
		if n.Op != graph.OpConv2D {
			continue
		}
		a := n.Attrs.(*graph.Conv2DAttrs)
		inShape := shapes[n.Inputs[0]]
		normShape := append([]int(nil), inShape...)
		if len(normShape) == 4 {
			normShape[0] = 1
		}
		sig := SigConv(a, normShape)
		site, ok := bySig[sig]
		if !ok {
			site = &convSite{sig: sig, attrs: a,
				inShape: append([]int(nil), inShape...), normShape: normShape}
			bySig[sig] = site
			order = append(order, site)
		}
		site.nodes = append(site.nodes, n.Name)
	}
	return order
}

// decisionForScheme maps a (scheme, tile) choice onto the candidate list
// evaluated at the real batch size, so committed decisions carry the right
// EffMULs for the simulated clock even though ranking ran at batch 1.
func decisionForScheme(dec core.ConvDecision, cands []core.ConvCandidate) (core.ConvDecision, bool) {
	for _, c := range cands {
		if c.Decision.Scheme == dec.Scheme && c.Decision.TileH == dec.TileH && c.Decision.TileW == dec.TileW {
			return c.Decision, true
		}
	}
	return core.ConvDecision{}, false
}

// candidateFromCache maps a cache entry back onto the signature's legal
// candidate list. A corrupt or stale entry (unknown scheme, an algorithm the
// predicates reject for this shape) returns false and the search falls back
// to the cost model — a bad cache can degrade performance, never correctness.
func candidateFromCache(e CacheEntry, cands []core.ConvCandidate) (core.ConvDecision, bool) {
	scheme, err := core.ParseConvScheme(e.Scheme)
	if err != nil {
		return core.ConvDecision{}, false
	}
	for _, c := range cands {
		if c.Decision.Scheme != scheme {
			continue
		}
		if scheme == core.SchemeWinograd && (c.Decision.TileH != e.TileH || c.Decision.TileW != e.TileW) {
			continue
		}
		return c.Decision, true
	}
	return core.ConvDecision{}, false
}

// New runs the search for a graph whose shapes are already inferred and
// returns the committed plan. ModeHeuristic returns (nil, nil): callers keep
// the built-in selection with zero overhead.
func New(g *graph.Graph, shapes graph.ShapeMap, cfg Config) (*Plan, error) {
	if cfg.Mode == ModeHeuristic {
		return nil, nil
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 3
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.ModelKey == "" {
		cfg.ModelKey = g.Name
	}
	plan := &Plan{
		Decisions: map[string]core.ConvDecision{},
		Report:    Report{Mode: cfg.Mode.String(), CachePath: cfg.CachePath},
	}
	sites := collectSites(g, shapes)
	plan.Report.Unique = len(sites)

	var cache *Cache
	if cfg.Mode == ModeMeasured {
		if cfg.CachePath != "" {
			if o := cfg.Fault.Hit(fault.SiteCacheRead, cfg.CachePath); o != nil {
				// An injected read fault behaves exactly like a corrupt
				// file: ignore the cache and re-tune — the PR 5 contract
				// that a bad cache can never break an Open.
				_ = o.Apply()
			} else if c, err := LoadCacheFile(cfg.CachePath, cfg.ModelKey); err == nil {
				cache = c
				plan.Report.CacheLoaded = true
			} else if !errors.Is(err, os.ErrNotExist) && !errors.Is(err, ErrCacheStale) && !errors.Is(err, ErrCacheCorrupt) {
				return nil, fmt.Errorf("tuner: reading cache %s: %w", cfg.CachePath, err)
			}
		}
		if cache == nil {
			cache = NewCache(cfg.ModelKey)
		}
	}

	// The micro-benchmark pool is created lazily: a fully warm cache (or
	// ModeCost) never spawns a worker.
	var pool *sched.Pool
	defer func() {
		if pool != nil {
			pool.Close()
		}
	}()
	dirty := false

	for _, site := range sites {
		// Measured rankings depend on how many lanes the kernels fan out
		// over and on the execution precision, so cache entries carry both;
		// one cache file still serves every configuration of the model.
		key := fmt.Sprintf("%s@t%d", site.sig, cfg.Threads)
		if cfg.Int8 {
			key += "i8"
		}
		// Rank and measure at batch 1 (normShape) so the choice is
		// batch-invariant; commit the decision re-evaluated at the real
		// batch so EffMULs stays correct for the simulated clock.
		normCands := core.ConvCandidates(site.attrs, site.normShape)
		realCands := core.ConvCandidates(site.attrs, site.inShape)
		commit := func(d core.ConvDecision) core.ConvDecision {
			if mapped, ok := decisionForScheme(d, realCands); ok {
				return mapped
			}
			// Unreachable while legality is batch-independent; keep the
			// heuristic so a degenerate shape still prepares.
			return core.SelectConvScheme(site.attrs, site.inShape)
		}
		var dec core.ConvDecision
		switch {
		case len(normCands) == 0:
			// Unreachable for valid graphs (im2col is universal).
			dec = core.SelectConvScheme(site.attrs, site.inShape)
		case cfg.Mode == ModeCost:
			dec = commit(rankCandidates(normCands)[0].Decision)
		default: // ModeMeasured
			if e, ok := cache.Entries[key]; ok {
				if d, ok := candidateFromCache(e, normCands); ok {
					dec = commit(d)
					plan.Report.CacheHits++
					break
				}
				// Entry rejected by the legality predicates: drop and re-measure.
				delete(cache.Entries, key)
			}
			ranked := rankCandidates(normCands)
			if len(ranked) > cfg.TopK {
				ranked = ranked[:cfg.TopK]
			}
			if pool == nil {
				pool = sched.New(cfg.Threads)
			}
			best, bestNs, measured, err := measureBest(site.attrs, site.normShape, ranked, pool, cfg.Reps, cfg.Int8)
			if err != nil {
				return nil, fmt.Errorf("tuner: measuring %s: %w", site.sig, err)
			}
			plan.Report.Measured += measured
			dec = commit(best)
			cache.Entries[key] = CacheEntry{
				Scheme: best.Scheme.String(), TileH: best.TileH, TileW: best.TileW, NsPerOp: bestNs,
			}
			dirty = true
		}
		for _, name := range site.nodes {
			plan.Decisions[name] = dec
			plan.Report.ConvOps++
		}
	}

	if cfg.Mode == ModeMeasured && cfg.CachePath != "" && dirty {
		// Re-read and merge just before writing: a concurrent Open sharing
		// the path may have persisted entries since we loaded. Last writer
		// wins per entry, but nobody's measurements are wholesale lost.
		if latest, err := LoadCacheFile(cfg.CachePath, cfg.ModelKey); err == nil {
			for sig, e := range latest.Entries {
				if _, ours := cache.Entries[sig]; !ours {
					cache.Entries[sig] = e
				}
			}
		}
		if o := cfg.Fault.Hit(fault.SiteCacheWrite, cfg.CachePath); o != nil && o.Mode == fault.ModeTorn {
			// Simulated crash mid-persist: tear the write (truncated
			// destination, stale temp left behind) and keep going — the
			// in-memory plan is unaffected; the damage is what the next
			// Open must survive. CacheSaved stays false.
			_ = TornSaveCacheFile(cfg.CachePath, cache)
		} else if err := o.Apply(); err != nil {
			return nil, fmt.Errorf("tuner: writing cache %s: %w", cfg.CachePath, err)
		} else if o == nil {
			if err := SaveCacheFile(cfg.CachePath, cache); err != nil {
				return nil, fmt.Errorf("tuner: writing cache %s: %w", cfg.CachePath, err)
			}
			plan.Report.CacheSaved = true
		}
	}
	return plan, nil
}
