// Package backend defines the backend abstraction module of Section 3.4:
// the uniform interface (Figure 5 of the paper) behind which every hardware
// platform and software solution hides. Resource management, memory
// allocation and scheduling are disentangled from operator implementations:
// "front-end operator" code only sees this interface.
package backend

import (
	"fmt"

	"mnn/internal/graph"
	"mnn/internal/memory"
	"mnn/internal/tensor"
)

// Kind identifies a backend implementation, mirroring MNNForwardType.
type Kind uint8

const (
	KindCPU Kind = iota
	KindMetal
	KindOpenCL
	KindOpenGL
	KindVulkan
)

func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindMetal:
		return "Metal"
	case KindOpenCL:
		return "OpenCL"
	case KindOpenGL:
		return "OpenGL"
	case KindVulkan:
		return "Vulkan"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// StorageType mirrors the paper's buffer storage classes.
type StorageType uint8

const (
	// StorageStatic buffers live for the whole session (weights, constants).
	StorageStatic StorageType = iota
	// StorageDynamic buffers are planned into the reuse arena (activations,
	// workspaces) during pre-inference.
	StorageDynamic
)

// WeightSource resolves constant tensors by name during OnCreate.
type WeightSource func(name string) *tensor.Tensor

// Execution is a prepared, bound operator instance (the object onCreate
// returns in Figure 5). Everything shape- or weight-dependent happened at
// creation; Run is pure compute.
type Execution interface {
	Run() error
}

// Backend is the uniform interface of Figure 5.
type Backend interface {
	// Kind identifies the backend.
	Kind() Kind
	// Name is the human-readable unique name (used in assignments/costs).
	Name() string

	// Supports reports whether the operator can run here. Unsupported ops
	// are scheduled to the CPU (Section 3.2).
	Supports(n *graph.Node) bool

	// OnCreate builds the execution instance for one operator with bound
	// input/output tensors. Weight re-packing, Winograd weight transforms
	// and (on GPU) pipeline/command setup happen here — during
	// pre-inference, not inference (Table 2's decoupling).
	OnCreate(n *graph.Node, inputs, outputs []*tensor.Tensor, weights WeightSource) (Execution, error)

	// OnExecuteBegin/End bracket one inference (GPU backends open/submit
	// their command stream here).
	OnExecuteBegin()
	OnExecuteEnd()

	// OnAcquireBuffer declares that the named buffer of size float32
	// elements must be live from the current step; OnReleaseBuffer ends the
	// lifetime. Static buffers bypass the reuse arena.
	OnAcquireBuffer(name string, size int, step int, st StorageType)
	OnReleaseBuffer(name string, step int)
	// OnAllocate ends the virtual walk: plans and materializes the arena.
	OnAllocate() error
	// OnClearBuffer drops all planned state.
	OnClearBuffer()
	// Buffer returns the backing slice of a planned buffer.
	Buffer(name string) []float32
	// ArenaSize reports the planned arena length (float32 elements).
	ArenaSize() int
	// NoReuseSize reports the arena length a reuse-free allocator would
	// need, for diagnostics.
	NoReuseSize() int

	// OnCopyBuffer copies src into dst, converting layout if needed
	// (and, across backends, modelling the transfer).
	OnCopyBuffer(src, dst *tensor.Tensor) error

	// PreferredLayout returns the activation layout for a tensor rank.
	PreferredLayout(rank int) tensor.Layout

	// FLOPS and ScheduleOverheadMs are the Equation 5 cost terms.
	FLOPS() float64
	ScheduleOverheadMs() float64
}

// WorkspaceSizer is implemented by backends whose kernels need transient
// scratch (im2col and int8 GEMM workspaces, Winograd tile buffers,
// layout-staging copies; the NC4HW4-native 1×1 and depthwise convolutions
// need none). During the pre-inference walk the session asks
// for each node's requirement and plans it into the reuse arena with a
// single-step lifetime, so OnCreate can bind planner-backed slices and the
// hot path never calls the allocator (the paper's Figure 3 extended from
// activations to all transients).
type WorkspaceSizer interface {
	// NodeWorkspaceFloats returns the float32 count of scratch the backend
	// will want for this node, given the inferred input/output shapes.
	// Zero means no workspace.
	NodeWorkspaceFloats(n *graph.Node, inputShapes, outputShapes [][]int) int
}

// WorkspaceKey names a node's planned workspace buffer inside its backend's
// arena ("ws@" + node name; node names never collide with it because
// tensor buffers are keyed by output-tensor name).
func WorkspaceKey(node string) string { return "ws@" + node }

// BufferTracker implements the acquire/release/allocate protocol on top of
// the memory planner; concrete backends embed it.
type BufferTracker struct {
	items    []memory.Item
	open     map[string]int // name → index into items
	statics  map[string][]float32
	arena    *memory.Arena
	plan     *memory.Plan
	lastStep int
}

// NewBufferTracker returns an empty tracker.
func NewBufferTracker() *BufferTracker {
	return &BufferTracker{open: map[string]int{}, statics: map[string][]float32{}}
}

// OnAcquireBuffer records the start of a buffer's lifetime.
func (bt *BufferTracker) OnAcquireBuffer(name string, size int, step int, st StorageType) {
	if st == StorageStatic {
		bt.statics[name] = make([]float32, size)
		return
	}
	if _, dup := bt.open[name]; dup {
		panic(fmt.Sprintf("backend: buffer %q acquired twice", name))
	}
	bt.items = append(bt.items, memory.Item{Name: name, Size: size, DefStep: step, LastStep: step})
	bt.open[name] = len(bt.items) - 1
	if step > bt.lastStep {
		bt.lastStep = step
	}
}

// OnReleaseBuffer extends then closes a buffer's lifetime at step.
func (bt *BufferTracker) OnReleaseBuffer(name string, step int) {
	idx, ok := bt.open[name]
	if !ok {
		if _, isStatic := bt.statics[name]; isStatic {
			return
		}
		panic(fmt.Sprintf("backend: release of unknown buffer %q", name))
	}
	if step > bt.items[idx].LastStep {
		bt.items[idx].LastStep = step
	}
	if step > bt.lastStep {
		bt.lastStep = step
	}
	delete(bt.open, name)
}

// OnAllocate plans all recorded lifetimes and materializes the arena.
// Buffers still open are extended to the final step.
func (bt *BufferTracker) OnAllocate() error {
	for name, idx := range bt.open {
		_ = name
		if bt.items[idx].LastStep < bt.lastStep {
			bt.items[idx].LastStep = bt.lastStep
		}
	}
	plan, err := memory.PlanItems(bt.items)
	if err != nil {
		return err
	}
	bt.plan = plan
	bt.arena = memory.NewArena(plan)
	return nil
}

// OnClearBuffer drops everything.
func (bt *BufferTracker) OnClearBuffer() {
	bt.items = nil
	bt.open = map[string]int{}
	bt.statics = map[string][]float32{}
	bt.arena = nil
	bt.plan = nil
	bt.lastStep = 0
}

// PlannedBuffer returns the backing slice of a planned or static buffer,
// or nil when the name was never planned (e.g. a backend used outside a
// session's pre-inference walk). Unlike Buffer it never panics, so
// OnCreate can fall back to a private allocation.
func (bt *BufferTracker) PlannedBuffer(name string) []float32 {
	if s, ok := bt.statics[name]; ok {
		return s
	}
	if bt.arena != nil && bt.arena.Has(name) {
		return bt.arena.Buffer(name)
	}
	return nil
}

// Buffer returns a planned or static buffer.
func (bt *BufferTracker) Buffer(name string) []float32 {
	if s, ok := bt.statics[name]; ok {
		return s
	}
	if bt.arena == nil {
		panic("backend: Buffer before OnAllocate")
	}
	return bt.arena.Buffer(name)
}

// ArenaSize reports the dynamic arena size (excludes statics).
func (bt *BufferTracker) ArenaSize() int {
	if bt.arena == nil {
		return 0
	}
	return bt.arena.Size()
}

// NoReuseSize reports what the arena would cost without lifetime reuse
// (the Figure 3 comparison baseline).
func (bt *BufferTracker) NoReuseSize() int {
	if bt.plan == nil {
		return 0
	}
	return bt.plan.NoReuseSize
}
