package session

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// ProfileEntry is one operator's measured cost in a profiled run.
type ProfileEntry struct {
	Node    string
	Op      graph.OpType
	Backend string
	// Wall is the host wall-clock time of the execution (staging copies
	// for the node are included).
	Wall time.Duration
}

// Profile is a per-operator breakdown of one inference.
type Profile struct {
	Entries []ProfileEntry
	Total   time.Duration
}

// RunProfiled executes one inference measuring every operator, the
// equivalent of the original engine's per-op profiler tooling. It is a
// timing observer on RunObserved's loop — one timestamp per step, so fault
// injection, panic containment and cancellation behave exactly as in Run —
// and each entry's Wall runs from the previous step's end (the run's start
// for the first step, which therefore also carries a NoPreparation
// session's interleaved preparation).
func (s *Session) RunProfiled(ctx context.Context) (*Profile, error) {
	p := &Profile{Entries: make([]ProfileEntry, 0, len(s.steps))}
	start := time.Now()
	last := start
	err := s.RunObserved(ctx, func(n *graph.Node, _ []*tensor.Tensor) {
		now := time.Now()
		p.Entries = append(p.Entries, ProfileEntry{
			Node:    n.Name,
			Op:      n.Op,
			Backend: s.assign[n.Name],
			Wall:    now.Sub(last),
		})
		last = now
	})
	if err != nil {
		return nil, err
	}
	p.Total = last.Sub(start)
	return p, nil
}

// MedianProfile folds profiles of the same steps into one: each entry's
// Wall is the median of that node's over the profiles, Total the sum of
// those medians. One profiled run cannot be read for ops of a few
// microseconds — the clock's step and a neighbour's interruption are as
// large — the median of many can.
func MedianProfile(ps []*Profile) (*Profile, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("session: no profiles to fold")
	}
	first := ps[0].Entries
	out := &Profile{Entries: make([]ProfileEntry, len(first))}
	walls := make([]time.Duration, len(ps))
	for i, e := range first {
		for r, p := range ps {
			if len(p.Entries) != len(first) || p.Entries[i].Node != e.Node {
				return nil, fmt.Errorf("session: profile %d ran other steps than profile 0", r)
			}
			walls[r] = p.Entries[i].Wall
		}
		slices.Sort(walls)
		n := len(walls)
		e.Wall = (walls[(n-1)/2] + walls[n/2]) / 2
		out.Entries[i] = e
		out.Total += e.Wall
	}
	return out, nil
}

// ByOp aggregates total time per operator type, descending.
func (p *Profile) ByOp() []ProfileEntry {
	agg := map[graph.OpType]time.Duration{}
	for _, e := range p.Entries {
		agg[e.Op] += e.Wall
	}
	out := make([]ProfileEntry, 0, len(agg))
	for op, d := range agg {
		out = append(out, ProfileEntry{Op: op, Wall: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}

// Hottest returns the n slowest operators, descending.
func (p *Profile) Hottest(n int) []ProfileEntry {
	out := append([]ProfileEntry(nil), p.Entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}

// Dump writes a human-readable report, times to the microsecond: a
// transformer op takes a few of them.
func (p *Profile) Dump(w io.Writer, topN int) {
	fmt.Fprintf(w, "total: %.3f ms over %d ops (%s kernels, int8 %s)\n", msOf(p.Total), len(p.Entries), matmul.KernelISA(), matmul.Int8ISA())
	fmt.Fprintf(w, "\nby op type:\n")
	for _, e := range p.ByOp() {
		pct := 0.0
		if p.Total > 0 {
			pct = float64(e.Wall) / float64(p.Total) * 100
		}
		fmt.Fprintf(w, "  %-14s %9.3f ms %5.1f%%\n", e.Op, msOf(e.Wall), pct)
	}
	fmt.Fprintf(w, "\nhottest %d operators:\n", topN)
	for _, e := range p.Hottest(topN) {
		fmt.Fprintf(w, "  %-28s %-12s %-8s %9.3f ms\n", e.Node, e.Op, e.Backend, msOf(e.Wall))
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
