package session

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"mnn/internal/graph"
	"mnn/internal/matmul"
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
// equivalent of the original engine's per-op profiler tooling. Like Run it
// checks ctx between operators; a nil ctx behaves like context.Background().
func (s *Session) RunProfiled(ctx context.Context) (*Profile, error) {
	if s.cfg.NoPreparation {
		if err := s.prepareFresh(); err != nil {
			return nil, err
		}
	}
	done, err := ctxDone(ctx)
	if err != nil {
		return nil, err
	}
	p := &Profile{Entries: make([]ProfileEntry, 0, len(s.steps))}
	start := time.Now()
	for _, b := range s.backends {
		b.OnExecuteBegin()
	}
	defer func() {
		for _, b := range s.backends {
			b.OnExecuteEnd()
		}
	}()
	for i := range s.steps {
		st := &s.steps[i]
		if done != nil {
			select {
			case <-done:
				return nil, fmt.Errorf("session: cancelled at node %q: %w", st.node.Name, ctx.Err())
			default:
			}
		}
		t0 := time.Now()
		for _, c := range st.copies {
			if err := c.via.OnCopyBuffer(c.from, c.to); err != nil {
				return nil, fmt.Errorf("session: staging for %q: %w", st.node.Name, err)
			}
		}
		if err := st.exec.Run(); err != nil {
			return nil, fmt.Errorf("session: node %q: %w", st.node.Name, err)
		}
		p.Entries = append(p.Entries, ProfileEntry{
			Node:    st.node.Name,
			Op:      st.node.Op,
			Backend: s.assign[st.node.Name],
			Wall:    time.Since(t0),
		})
	}
	p.Total = time.Since(start)
	return p, nil
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

// Dump writes a human-readable report.
func (p *Profile) Dump(w io.Writer, topN int) {
	fmt.Fprintf(w, "total: %.2f ms over %d ops (%s kernels)\n", msOf(p.Total), len(p.Entries), matmul.KernelISA())
	fmt.Fprintf(w, "\nby op type:\n")
	for _, e := range p.ByOp() {
		pct := 0.0
		if p.Total > 0 {
			pct = float64(e.Wall) / float64(p.Total) * 100
		}
		fmt.Fprintf(w, "  %-14s %9.2f ms %5.1f%%\n", e.Op, msOf(e.Wall), pct)
	}
	fmt.Fprintf(w, "\nhottest %d operators:\n", topN)
	for _, e := range p.Hottest(topN) {
		fmt.Fprintf(w, "  %-28s %-12s %-8s %9.2f ms\n", e.Node, e.Op, e.Backend, msOf(e.Wall))
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
