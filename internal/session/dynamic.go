// Dynamic shapes: a session prepared at a *maximum* input shape can serve
// any smaller shape without re-preparation. The Figure-3 arena, every
// workspace, and every prepared kernel are planned once at the max; per run
// the only thing that changes is the shape metadata on the arena-wrapped
// activation tensors, which ApplyInputShapes overwrites in place (each
// tensor's content becomes the prefix of its planned buffer, in the tensor's
// own layout: NC4HW4 geometry does not depend on N, H or W). Every CPU kernel
// re-derives its geometry from those shapes at Run, so the steady state stays
// pure-compute and allocation-free: repeat shapes hit a cached shape plan and
// only loop over SetBoundedShape calls. The inputs of an in-place concat are
// views whose offset in the concat's buffer is cz·H·W·4 at batch 1: the plan
// re-slices them there (SetBoundedView), so they stay the concat output's
// channel ranges at every shape.
package session

import (
	"fmt"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// dynPlan is one cached shape derivation: the input dims it was derived
// from (collision check) and the per-tensor shapes to apply.
type dynPlan struct {
	inputs  [][]int // one per g.InputNames entry, in order
	applied []appliedShape
}

// appliedShape is one tensor's shape in a plan; a view of an in-place concat
// also carries its parent's planned buffer and its offset there.
type appliedShape struct {
	t     *tensor.Tensor
	shape []int
	base  []float32
	off   int
}

// dynState is the retained dynamic-shape machinery.
type dynState struct {
	tensors map[string]*tensor.Tensor // activation name → arena-wrapped tensor
	bases   map[string][]float32      // in-place concat output → its planned buffer
	plans   map[uint64][]*dynPlan     // input-dims hash → candidate plans
	current *dynPlan                  // plan applied by the last ApplyInputShapes
}

// EnableDynamic validates that the prepared session can serve smaller-than-
// planned input shapes without re-preparation and retains the machinery to
// do it. Requirements: the session is prepared (not NoPreparation) and every
// node runs on the CPU backend (no cross-backend mirrors, whose staging
// schedule is shape-dependent).
func (s *Session) EnableDynamic() error {
	if s.cfg.NoPreparation {
		return fmt.Errorf("session: dynamic shapes require preparation")
	}
	if s.bound == nil {
		return fmt.Errorf("session: dynamic shapes: session not prepared")
	}
	cpuName := s.backends[0].Name()
	for _, n := range s.g.Nodes {
		if s.assign[n.Name] != cpuName {
			return fmt.Errorf("session: dynamic shapes are CPU-only; node %q assigned to %q", n.Name, s.assign[n.Name])
		}
	}
	tensors := make(map[string]*tensor.Tensor, len(s.shapes))
	for name := range s.shapes {
		t := s.bound[name+"#"+cpuName]
		if t == nil {
			return fmt.Errorf("session: dynamic shapes: activation %q has no CPU binding", name)
		}
		tensors[name] = t
	}
	bases := map[string][]float32{}
	for _, v := range s.views {
		bases[v.parent] = s.backends[0].Buffer(v.parent)
	}
	s.dyn = &dynState{tensors: tensors, bases: bases, plans: map[uint64][]*dynPlan{}}
	return nil
}

// Dynamic reports whether EnableDynamic succeeded on this session.
func (s *Session) Dynamic() bool { return s.dyn != nil }

// hashDims folds input dims into an FNV-1a hash. Inputs are visited in
// g.InputNames order so the hash is stable across calls.
func (s *Session) hashDims(inputs map[string]*tensor.Tensor) (uint64, error) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, name := range s.g.InputNames {
		t, ok := inputs[name]
		if !ok {
			return 0, fmt.Errorf("session: missing input %q", name)
		}
		for _, d := range t.Shape() {
			h ^= uint64(d)
			h *= prime64
		}
		h ^= 0xff // rank separator
		h *= prime64
	}
	return h, nil
}

// ApplyInputShapes re-derives every activation shape from the given run
// inputs and applies them in place. Repeat shapes hit the plan cache and
// perform zero allocations; a novel shape runs graph.InferShapes once and
// caches the result. Shapes that do not fit the planned (max-shape) buffers
// return an error without modifying any tensor.
func (s *Session) ApplyInputShapes(inputs map[string]*tensor.Tensor) error {
	if s.dyn == nil {
		return fmt.Errorf("session: dynamic shapes not enabled")
	}
	h, err := s.hashDims(inputs)
	if err != nil {
		return err
	}
	for _, p := range s.dyn.plans[h] {
		if s.planMatches(p, inputs) {
			return s.applyPlan(p)
		}
	}
	p, err := s.derivePlan(inputs)
	if err != nil {
		return err
	}
	s.dyn.plans[h] = append(s.dyn.plans[h], p)
	return s.applyPlan(p)
}

func (s *Session) planMatches(p *dynPlan, inputs map[string]*tensor.Tensor) bool {
	for i, name := range s.g.InputNames {
		if !tensor.EqualShape(p.inputs[i], inputs[name].Shape()) {
			return false
		}
	}
	return true
}

func (s *Session) applyPlan(p *dynPlan) error {
	if s.dyn.current == p {
		return nil
	}
	for _, a := range p.applied {
		var err error
		if a.base != nil {
			err = a.t.SetBoundedView(a.base, a.off, a.shape)
		} else {
			err = a.t.SetBoundedShape(a.shape)
		}
		if err != nil {
			// Unreachable after derivePlan validated the fit, but a failure
			// mid-loop must not go unnoticed.
			return err
		}
	}
	s.dyn.current = p
	return nil
}

// derivePlan runs shape inference at the requested input shapes and checks
// every derived shape against its planned buffer capacity.
func (s *Session) derivePlan(inputs map[string]*tensor.Tensor) (*dynPlan, error) {
	overrides := make(map[string][]int, len(s.g.InputNames))
	dims := make([][]int, len(s.g.InputNames))
	for i, name := range s.g.InputNames {
		t := inputs[name]
		planned := s.dyn.tensors[name]
		if t.Rank() != planned.Rank() {
			return nil, fmt.Errorf("session: input %q rank %d, planned rank %d", name, t.Rank(), planned.Rank())
		}
		shape := append([]int(nil), t.Shape()...)
		overrides[name] = shape
		dims[i] = shape
	}
	shapes, err := graph.InferShapes(s.g, overrides)
	if err != nil {
		return nil, err
	}
	p := &dynPlan{inputs: dims, applied: make([]appliedShape, 0, len(shapes))}
	for name, shape := range shapes {
		t := s.dyn.tensors[name]
		if t == nil {
			return nil, fmt.Errorf("session: activation %q appeared during dynamic inference", name)
		}
		if len(shape) != t.Rank() {
			return nil, fmt.Errorf("session: activation %q rank changed %d -> %d", name, t.Rank(), len(shape))
		}
		a := appliedShape{t: t, shape: append([]int(nil), shape...)}
		need, capacity := tensor.PhysicalLen(t.Layout(), shape), t.Capacity()
		if v, ok := s.views[name]; ok {
			if shape[0] != 1 {
				return nil, fmt.Errorf("session: activation %q shape %v: an in-place concat input runs at batch 1", name, shape)
			}
			a.base, a.off = s.dyn.bases[v.parent], v.cz*shape[2]*shape[3]*4
			need, capacity = a.off+need, len(a.base)
		}
		if need > capacity {
			return nil, fmt.Errorf("session: activation %q shape %v needs %d floats, planned %d",
				name, shape, need, capacity)
		}
		p.applied = append(p.applied, a)
	}
	return p, nil
}
