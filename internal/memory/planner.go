// Package memory implements the pre-inference memory planner of Figure 3 in
// the paper: because input sizes are fixed, the engine virtually walks the
// graph once, records every allocation and free as (size, defStep,
// lastStep) lifetimes, packs those lifetimes offline (largest buffer first,
// tightest gap), and lays everything out in a single arena that following
// inference sessions alias into without ever calling the allocator.
//
// Figure 3 mapping:
//
//   - the "virtual walk" is session.prepare's lifetime analysis feeding
//     Backend.OnAcquireBuffer/OnReleaseBuffer (one Item per buffer);
//   - "memory pool reuse" is PlanItems' packing — an item last used at
//     step s can back another defined at s+1, so the arena is about the
//     high-water mark of live bytes, not the sum (NoReuseSize keeps the
//     naive figure for the ablation benchmark);
//   - "execute with pre-allocated memory" is Arena.Buffer handing out
//     aliased sub-slices during Run.
//
// Coverage: the arena holds the activations AND every kernel workspace.
// Each backend that computes (the CPU backend, via backend.WorkspaceSizer)
// declares per-node transient needs during the walk — per-worker-lane
// Winograd tile buffers, im2col and int8 GEMM matrices, layout-staging
// copies — with single-step lifetimes, so
// workspaces share bytes with dead activations and with other steps'
// workspaces. Together with the persistent worker pool (internal/sched)
// this makes steady-state inference fully allocation-free; the
// testing.AllocsPerRun regression tests and `mnnbench -exp allocs` hold
// that line.
package memory

import (
	"fmt"
	"sort"
)

// Item is one buffer requirement: a named region of Size float32 elements
// that must be live from step DefStep through step LastStep (inclusive).
type Item struct {
	Name     string
	Size     int
	DefStep  int
	LastStep int
}

// Chunk is a planned placement inside the arena.
type Chunk struct {
	Offset int
	Size   int
}

// Plan is the result of planning: every item's placement plus the total
// arena size.
type Plan struct {
	ArenaSize int
	Chunks    map[string]Chunk
	// NoReuseSize is what a naive allocator (no lifetime reuse) would need;
	// kept for the memory-pool ablation benchmark.
	NoReuseSize int
}

// alignment in float32 elements: 16 floats = 64 bytes, one cache line.
const alignment = 16

func alignUp(n int) int { return (n + alignment - 1) / alignment * alignment }

// PlanItems lays the items out largest first: every item goes into the
// tightest gap between the already placed items whose lifetimes overlap its
// own (or on top of them when none fits). All lifetimes are known before
// anything is placed — that is the point of the pre-inference walk — so big
// buffers get the low offsets and small ones fill the holes, which lands on
// or within a fraction of a percent of the peak-live-bytes lower bound on
// every built-in network; replaying the alloc/free stream through an online
// free list instead fragments (1.8× that bound on average). Items sharing a
// step boundary do not overlap: an item last used at step s can back another
// defined at step s+1, not one defined at s.
func PlanItems(items []Item) (*Plan, error) {
	plan := &Plan{Chunks: make(map[string]Chunk, len(items))}
	order := make([]Item, len(items))
	copy(order, items)
	for _, it := range order {
		if it.Size < 0 {
			return nil, fmt.Errorf("memory: item %q has negative size", it.Name)
		}
		if it.LastStep < it.DefStep {
			return nil, fmt.Errorf("memory: item %q dies (%d) before defined (%d)", it.Name, it.LastStep, it.DefStep)
		}
		if _, dup := plan.Chunks[it.Name]; dup {
			return nil, fmt.Errorf("memory: duplicate item %q", it.Name)
		}
		plan.Chunks[it.Name] = Chunk{Size: it.Size}
		plan.NoReuseSize += alignUp(it.Size)
	}
	// Deterministic order: larger first, ties by definition step, then name.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		if a.DefStep != b.DefStep {
			return a.DefStep < b.DefStep
		}
		return a.Name < b.Name
	})
	placed := make([]Chunk, len(order)) // aligned placements, parallel to order
	var live []Chunk                    // those alive at some step of the current item, by offset
	for k, it := range order {
		size := alignUp(it.Size)
		if size == 0 {
			continue
		}
		live = live[:0]
		for j, o := range order[:k] {
			if o.LastStep >= it.DefStep && o.DefStep <= it.LastStep && placed[j].Size > 0 {
				live = append(live, placed[j])
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].Offset < live[j].Offset })
		offset, gap, top := -1, 0, 0
		for _, c := range live {
			if g := c.Offset - top; g >= size && (offset < 0 || g < gap) {
				offset, gap = top, g
			}
			top = max(top, c.Offset+c.Size)
		}
		if offset < 0 {
			offset = top
		}
		placed[k] = Chunk{Offset: offset, Size: size}
		plan.Chunks[it.Name] = Chunk{Offset: offset, Size: it.Size}
		plan.ArenaSize = max(plan.ArenaSize, offset+size)
	}
	return plan, nil
}

// Arena is the runtime slab backing a Plan. Buffer hands out aliased
// sub-slices; no allocation happens during inference (the decoupling that
// Table 2 of the paper measures).
type Arena struct {
	slab []float32
	plan *Plan
}

// NewArena materializes the plan into one backing slab.
func NewArena(plan *Plan) *Arena {
	return &Arena{slab: make([]float32, plan.ArenaSize), plan: plan}
}

// Buffer returns the planned slice for item name.
func (a *Arena) Buffer(name string) []float32 {
	c, ok := a.plan.Chunks[name]
	if !ok {
		panic(fmt.Sprintf("memory: no planned chunk named %q", name))
	}
	return a.slab[c.Offset : c.Offset+c.Size]
}

// Has reports whether the plan contains an item.
func (a *Arena) Has(name string) bool {
	_, ok := a.plan.Chunks[name]
	return ok
}

// Size returns the arena length in float32 elements.
func (a *Arena) Size() int { return len(a.slab) }
