package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Parent is the index of the span that
// caused it in the same trace (-1 for a root); spans of one operation share
// OpID.
type span struct {
	Workload string `json:"workload"`
	OpID     int    `json:"op_id"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// maxSpans bounds the in-memory trace: the sub-millisecond transformer
// would otherwise record hundreds of thousands of per-step spans in one
// pass. Spans past the bound are counted, not kept.
const maxSpans = 20000

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// which is how the end-to-end pass runs with tracing off.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	dropped  int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// add records a finished span and returns its index (-1 when not kept).
func (t *tracer) add(opID int, layer, name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		Workload: t.workload, OpID: opID, Layer: layer, Name: name,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
		Parent: parent,
	})
	return len(t.spans) - 1
}

// closeAt moves the end of span id (as returned by add) to end: a parent is
// added before its children so they can name it, and closed after them.
func (t *tracer) closeAt(id int, end time.Time) {
	if t != nil && id >= 0 {
		t.spans[id].EndNs = end.Sub(t.origin).Nanoseconds()
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(opID int, layer, name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(opID, layer, name, start, end, parent)
	return end.Sub(start)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice,
// and a child is clipped to its parent's interval).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered := s.StartNs // everything before this instant is already subtracted
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < covered {
				lo = covered
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// selfByLayer sums self time per layer, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer] += float64(ns) / 1e6
	}
	return out
}

// write dumps the trace as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
