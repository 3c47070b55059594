// Package memory implements the pre-inference memory planner of Figure 3 in
// the paper: because input sizes are fixed, the engine virtually walks the
// graph once, records every allocation and free as (size, defStep,
// lastStep) lifetimes, replays that stream through a best-fit free-list
// simulation, and lays everything out in a single arena that following
// inference sessions alias into without ever calling the allocator.
//
// Figure 3 mapping:
//
//   - the "virtual walk" is session.prepare's lifetime analysis feeding
//     Backend.OnAcquireBuffer/OnReleaseBuffer (one Item per buffer);
//   - "memory pool reuse" is PlanItems' free-list simulation — an item
//     freed at step s can back another defined at s+1, so the arena is the
//     high-water mark of live bytes, not the sum (NoReuseSize keeps the
//     naive figure for the ablation benchmark);
//   - "execute with pre-allocated memory" is Arena.Buffer handing out
//     aliased sub-slices during Run.
//
// Coverage: the arena holds the activations AND every kernel workspace.
// Each backend that computes (the CPU backend, via backend.WorkspaceSizer)
// declares per-node transient needs during the walk — GEMM pixel/product
// matrices, per-worker-lane Winograd tile buffers,
// im2col panels, layout-staging copies — with single-step lifetimes, so
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

// PlanItems lays out items with a best-fit free-list simulation of the
// paper's pre-inference walk (Figure 3: alloc/free stream is replayed ahead
// of time). Items sharing a step boundary do not overlap: an item freed at
// step s can back another item defined at step s+1, not one defined at s.
func PlanItems(items []Item) (*Plan, error) {
	for _, it := range items {
		if it.Size < 0 {
			return nil, fmt.Errorf("memory: item %q has negative size", it.Name)
		}
		if it.LastStep < it.DefStep {
			return nil, fmt.Errorf("memory: item %q dies (%d) before defined (%d)", it.Name, it.LastStep, it.DefStep)
		}
	}
	// Group allocations by def step and frees by last step.
	maxStep := 0
	for _, it := range items {
		if it.LastStep > maxStep {
			maxStep = it.LastStep
		}
	}
	allocAt := map[int][]Item{}
	freeAt := map[int][]Item{}
	noReuse := 0
	for _, it := range items {
		allocAt[it.DefStep] = append(allocAt[it.DefStep], it)
		freeAt[it.LastStep] = append(freeAt[it.LastStep], it)
		noReuse += alignUp(it.Size)
	}

	arena := &simArena{}
	plan := &Plan{Chunks: map[string]Chunk{}, NoReuseSize: noReuse}
	for step := 0; step <= maxStep; step++ {
		allocs := allocAt[step]
		// Deterministic order: larger first (classic best-fit heuristic),
		// ties by name.
		sort.Slice(allocs, func(i, j int) bool {
			if allocs[i].Size != allocs[j].Size {
				return allocs[i].Size > allocs[j].Size
			}
			return allocs[i].Name < allocs[j].Name
		})
		for _, it := range allocs {
			if _, dup := plan.Chunks[it.Name]; dup {
				return nil, fmt.Errorf("memory: duplicate item %q", it.Name)
			}
			off := arena.alloc(alignUp(it.Size))
			plan.Chunks[it.Name] = Chunk{Offset: off, Size: it.Size}
		}
		for _, it := range freeAt[step] {
			c := plan.Chunks[it.Name]
			arena.release(c.Offset, alignUp(it.Size))
		}
	}
	plan.ArenaSize = arena.high
	return plan, nil
}

// simArena is a best-fit free-list simulator with coalescing.
type simArena struct {
	free []Chunk // sorted by offset, non-adjacent
	high int     // high-water mark
}

func (a *simArena) alloc(size int) int {
	if size == 0 {
		return 0
	}
	// Best fit: smallest free chunk that holds size.
	best := -1
	for i, c := range a.free {
		if c.Size >= size && (best < 0 || c.Size < a.free[best].Size) {
			best = i
		}
	}
	if best >= 0 {
		c := a.free[best]
		off := c.Offset
		if c.Size == size {
			a.free = append(a.free[:best], a.free[best+1:]...)
		} else {
			a.free[best] = Chunk{Offset: c.Offset + size, Size: c.Size - size}
		}
		return off
	}
	off := a.high
	a.high += size
	return off
}

func (a *simArena) release(offset, size int) {
	if size == 0 {
		return
	}
	// Insert sorted by offset, then coalesce neighbours.
	idx := sort.Search(len(a.free), func(i int) bool { return a.free[i].Offset >= offset })
	a.free = append(a.free, Chunk{})
	copy(a.free[idx+1:], a.free[idx:])
	a.free[idx] = Chunk{Offset: offset, Size: size}
	// Coalesce with next.
	if idx+1 < len(a.free) && a.free[idx].Offset+a.free[idx].Size == a.free[idx+1].Offset {
		a.free[idx].Size += a.free[idx+1].Size
		a.free = append(a.free[:idx+1], a.free[idx+2:]...)
	}
	// Coalesce with previous.
	if idx > 0 && a.free[idx-1].Offset+a.free[idx-1].Size == a.free[idx].Offset {
		a.free[idx-1].Size += a.free[idx].Size
		a.free = append(a.free[:idx], a.free[idx+1:]...)
	}
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
