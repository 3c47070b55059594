package memory

import (
	"testing"
	"testing/quick"

	"mnn/internal/tensor"
)

func TestPlanReusesDeadBuffers(t *testing.T) {
	// Chain a→b→c where a dies when b is defined: c can reuse a's space.
	items := []Item{
		{Name: "a", Size: 100, DefStep: 0, LastStep: 1},
		{Name: "b", Size: 100, DefStep: 1, LastStep: 2},
		{Name: "c", Size: 100, DefStep: 2, LastStep: 3},
	}
	plan, err := PlanItems(items)
	if err != nil {
		t.Fatal(err)
	}
	// Two live at once ⇒ arena should be 2 aligned chunks, not 3.
	if plan.ArenaSize != 2*112 { // 100 aligns to 112
		t.Fatalf("arena = %d, want 224", plan.ArenaSize)
	}
	if plan.NoReuseSize != 3*112 {
		t.Fatalf("noReuse = %d, want 336", plan.NoReuseSize)
	}
	if plan.Chunks["a"].Offset != plan.Chunks["c"].Offset {
		t.Errorf("c should reuse a's chunk: a@%d c@%d", plan.Chunks["a"].Offset, plan.Chunks["c"].Offset)
	}
}

func TestPlanNoOverlapWhileLive(t *testing.T) {
	items := []Item{
		{Name: "x", Size: 50, DefStep: 0, LastStep: 5},
		{Name: "y", Size: 70, DefStep: 1, LastStep: 3},
		{Name: "z", Size: 30, DefStep: 2, LastStep: 4},
		{Name: "w", Size: 60, DefStep: 4, LastStep: 6}, // can reuse y (dead at 4? y dies at 3, w defined at 4 ⇒ yes)
	}
	plan, err := PlanItems(items)
	if err != nil {
		t.Fatal(err)
	}
	checkNoLiveOverlap(t, items, plan)
	if plan.Chunks["w"].Offset != plan.Chunks["y"].Offset {
		t.Errorf("w should best-fit into y's freed chunk")
	}
}

func checkNoLiveOverlap(t *testing.T, items []Item, plan *Plan) {
	t.Helper()
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			a, b := items[i], items[j]
			// Overlapping lifetimes?
			if a.DefStep <= b.LastStep && b.DefStep <= a.LastStep {
				ca, cb := plan.Chunks[a.Name], plan.Chunks[b.Name]
				if ca.Offset < cb.Offset+cb.Size && cb.Offset < ca.Offset+ca.Size && ca.Size > 0 && cb.Size > 0 {
					t.Errorf("live items %q and %q overlap: %+v vs %+v", a.Name, b.Name, ca, cb)
				}
			}
		}
	}
}

func TestPlanPropertyNoLiveOverlap(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := r.Intn(20) + 2
		items := make([]Item, n)
		for i := range items {
			def := r.Intn(15)
			items[i] = Item{
				Name:     string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Size:     r.Intn(500) + 1,
				DefStep:  def,
				LastStep: def + r.Intn(8),
			}
		}
		plan, err := PlanItems(items)
		if err != nil {
			return false
		}
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				a, b := items[i], items[j]
				if a.DefStep <= b.LastStep && b.DefStep <= a.LastStep {
					ca, cb := plan.Chunks[a.Name], plan.Chunks[b.Name]
					if ca.Offset < cb.Offset+cb.Size && cb.Offset < ca.Offset+ca.Size {
						return false
					}
				}
			}
		}
		return plan.ArenaSize <= plan.NoReuseSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := PlanItems([]Item{{Name: "bad", Size: -1, DefStep: 0, LastStep: 0}}); err == nil {
		t.Error("negative size must fail")
	}
	if _, err := PlanItems([]Item{{Name: "bad", Size: 1, DefStep: 5, LastStep: 2}}); err == nil {
		t.Error("inverted lifetime must fail")
	}
	if _, err := PlanItems([]Item{
		{Name: "dup", Size: 1, DefStep: 0, LastStep: 1},
		{Name: "dup", Size: 1, DefStep: 0, LastStep: 1},
	}); err == nil {
		t.Error("duplicate name must fail")
	}
}

func TestArenaBuffersAlias(t *testing.T) {
	items := []Item{
		{Name: "a", Size: 10, DefStep: 0, LastStep: 1},
		{Name: "b", Size: 20, DefStep: 0, LastStep: 1},
	}
	plan, err := PlanItems(items)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena(plan)
	if arena.Size() != plan.ArenaSize {
		t.Fatal("arena size mismatch")
	}
	a := arena.Buffer("a")
	b := arena.Buffer("b")
	if len(a) != 10 || len(b) != 20 {
		t.Fatal("buffer lengths wrong")
	}
	a[0] = 42
	if arena.Buffer("a")[0] != 42 {
		t.Fatal("Buffer must alias the slab")
	}
	if !arena.Has("a") || arena.Has("zzz") {
		t.Fatal("Has wrong")
	}
}

func TestArenaBufferPanicsOnUnknown(t *testing.T) {
	plan, _ := PlanItems(nil)
	arena := NewArena(plan)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	arena.Buffer("ghost")
}

func TestCoalescing(t *testing.T) {
	// Free two adjacent chunks; a larger item must fit into their union.
	items := []Item{
		{Name: "a", Size: 64, DefStep: 0, LastStep: 1},
		{Name: "b", Size: 64, DefStep: 0, LastStep: 1},
		{Name: "big", Size: 128, DefStep: 2, LastStep: 3},
	}
	plan, err := PlanItems(items)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaSize != 128 {
		t.Fatalf("arena = %d, want 128 (coalesced reuse)", plan.ArenaSize)
	}
}

func TestZeroSizeItem(t *testing.T) {
	plan, err := PlanItems([]Item{{Name: "z", Size: 0, DefStep: 0, LastStep: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaSize != 0 {
		t.Fatalf("zero item should cost nothing, got %d", plan.ArenaSize)
	}
}

func TestResNetLikePattern(t *testing.T) {
	// Residual block: input lives across the block (skip connection).
	items := []Item{
		{Name: "in", Size: 1000, DefStep: 0, LastStep: 3}, // consumed by add at step 3
		{Name: "c1", Size: 1000, DefStep: 1, LastStep: 2},
		{Name: "c2", Size: 1000, DefStep: 2, LastStep: 3},
		{Name: "add", Size: 1000, DefStep: 3, LastStep: 4},
	}
	plan, err := PlanItems(items)
	if err != nil {
		t.Fatal(err)
	}
	checkNoLiveOverlap(t, items, plan)
	// Peak live = in + c1 + c2 = 3 buffers (at step 2).
	if plan.ArenaSize != 3*1008 {
		t.Fatalf("arena = %d, want %d", plan.ArenaSize, 3*1008)
	}
}

// TestPlanPacksAroundLongLivedItem is the shape that makes an online
// free-list replay fragment: a small activation outlives the big single-step
// workspaces defined around it. Parked right after the first workspace it
// leaves no hole the later ones fit in (304 floats for a peak of 128 live);
// placed largest-first it sits on top and the workspaces share the bottom.
func TestPlanPacksAroundLongLivedItem(t *testing.T) {
	items := []Item{
		{Name: "ws2", Size: 80, DefStep: 2, LastStep: 2},
		{Name: "act", Size: 16, DefStep: 2, LastStep: 4},
		{Name: "ws3", Size: 96, DefStep: 3, LastStep: 3},
		{Name: "ws4", Size: 112, DefStep: 4, LastStep: 4},
	}
	plan, err := PlanItems(items)
	if err != nil {
		t.Fatal(err)
	}
	checkNoLiveOverlap(t, items, plan)
	if plan.ArenaSize != 128 {
		t.Fatalf("arena = %d, want the peak of live floats, 128", plan.ArenaSize)
	}
}
