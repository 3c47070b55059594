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
//     aliased sub-slices during Run;
//   - an alias item (Parent set) is a view Offset floats into its parent's
//     chunk, placed with the parent and taking no bytes of its own: the
//     session makes each input of a CPU channel concatenation such a view,
//     so its producer writes straight into its channel range and the
//     concatenation copies nothing;
//   - CheckPlan verifies a plan, and the backends run it on every plan
//     before making its arena: no two items live at the same step share
//     bytes unless one is a view of the other, and every view lies inside
//     its parent's chunk and lifetime.
//
// Coverage: the arena holds the activations AND every kernel workspace.
// Each backend that computes (the CPU backend, via backend.WorkspaceSizer)
// declares per-node transient needs during the walk — per-worker-lane
// Winograd tile buffers, im2col and int8 GEMM matrices, layout-staging
// copies — with single-step lifetimes, so
// workspaces share bytes with dead activations and with other steps'
// workspaces. Together with the persistent worker pool (internal/sched)
// this makes steady-state inference fully allocation-free; the
// testing.AllocsPerRun regression tests hold that line.
package memory

import (
	"fmt"
	"slices"
	"sort"
)

// Item is one buffer requirement: a named region of Size float32 elements
// that must be live from step DefStep through step LastStep (inclusive). An
// item with a Parent is an alias: the Size floats Offset floats into the
// parent item's region, inside its lifetime.
type Item struct {
	Name     string
	Size     int
	DefStep  int
	LastStep int
	Parent   string
	Offset   int
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
// defined at step s+1, not one defined at s. An alias item is placed at its
// offset in its parent's chunk; its parent must be an item that is no alias
// (CheckPlan verifies that the view lies inside it).
func PlanItems(items []Item) (*Plan, error) {
	plan := &Plan{Chunks: make(map[string]Chunk, len(items))}
	order := make([]Item, 0, len(items))
	var aliases []Item
	for _, it := range items {
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
		if it.Parent != "" {
			aliases = append(aliases, it)
			continue
		}
		order = append(order, it)
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
	for _, it := range aliases {
		p, ok := plan.Chunks[it.Parent]
		if !ok || slices.ContainsFunc(aliases, func(a Item) bool { return a.Name == it.Parent }) {
			return nil, fmt.Errorf("memory: alias %q of %q, which is no planned item", it.Name, it.Parent)
		}
		plan.Chunks[it.Name] = Chunk{Offset: p.Offset + it.Offset, Size: it.Size}
	}
	return plan, nil
}

// CheckPlan verifies a plan of items: every item has a chunk of its size
// inside the arena; no two items whose lifetimes share a step share a byte,
// unless one is an alias (a view) of the other; and every alias lies inside
// its parent's chunk and lifetime.
func CheckPlan(items []Item, plan *Plan) error {
	byName := make(map[string]Item, len(items))
	for _, it := range items {
		byName[it.Name] = it
	}
	chunk := func(it Item) (Chunk, error) {
		c, ok := plan.Chunks[it.Name]
		if !ok || c.Size != it.Size || c.Offset < 0 || c.Offset+c.Size > plan.ArenaSize {
			return c, fmt.Errorf("memory: item %q (%d floats) has chunk %+v in an arena of %d", it.Name, it.Size, c, plan.ArenaSize)
		}
		return c, nil
	}
	for _, it := range items {
		c, err := chunk(it)
		if err != nil {
			return err
		}
		if it.Parent == "" {
			continue
		}
		p, ok := byName[it.Parent]
		if !ok {
			return fmt.Errorf("memory: alias %q of unknown item %q", it.Name, it.Parent)
		}
		pc, err := chunk(p)
		if err != nil {
			return err
		}
		if c.Offset < pc.Offset || c.Offset+c.Size > pc.Offset+pc.Size || it.DefStep < p.DefStep || it.LastStep > p.LastStep {
			return fmt.Errorf("memory: alias %q (floats %d+%d, steps %d-%d) outside %q (floats %d+%d, steps %d-%d)",
				it.Name, c.Offset, c.Size, it.DefStep, it.LastStep, p.Name, pc.Offset, pc.Size, p.DefStep, p.LastStep)
		}
	}
	// Sorted by offset, an item can only overlap those after it that start
	// before it ends.
	order := make([]Item, 0, len(items))
	for _, it := range items {
		if it.Size > 0 {
			order = append(order, it)
		}
	}
	sort.Slice(order, func(i, j int) bool { return plan.Chunks[order[i].Name].Offset < plan.Chunks[order[j].Name].Offset })
	for i, a := range order {
		ca := plan.Chunks[a.Name]
		for _, b := range order[i+1:] {
			cb := plan.Chunks[b.Name]
			if cb.Offset >= ca.Offset+ca.Size {
				break
			}
			if a.LastStep < b.DefStep || b.LastStep < a.DefStep || a.Parent == b.Name || b.Parent == a.Name {
				continue
			}
			return fmt.Errorf("memory: %q (floats %d+%d, steps %d-%d) and %q (floats %d+%d, steps %d-%d) share bytes while both live",
				a.Name, ca.Offset, ca.Size, a.DefStep, a.LastStep, b.Name, cb.Offset, cb.Size, b.DefStep, b.LastStep)
		}
	}
	return nil
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
