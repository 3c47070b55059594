package cpu

import "sync"

// Prepared holds the immutable prepared weights of one graph — packed fp32
// and int8 panels, Winograd position panels, per-channel weight scales,
// weight-form MatMul panels — keyed by node name, since an engine decides
// each node's kernel once. The CPU backends of one engine's pooled sessions
// share one, so a weight is packed once per engine, not once per session;
// each backend still builds kernel objects of its own around it, because
// their run state is mutable. Safe for concurrent use; the zero value is
// empty.
type Prepared struct {
	mu sync.Mutex
	m  map[string]any
}

// get returns what build made for node, building it on the first call for
// the node; with a nil p it builds afresh on every call.
func get[V any](p *Prepared, node string, build func() (V, error)) (V, error) {
	if p == nil {
		return build()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.m[node].(V); ok {
		return v, nil
	}
	v, err := build()
	if err == nil {
		if p.m == nil {
			p.m = map[string]any{}
		}
		p.m[node] = v
	}
	return v, err
}

// shared returns a kernel of the caller's own over the prepared weights of
// node. The kernel prepare builds is kept unrun, as the weights' owner; every
// caller runs a Share of it.
func shared[K interface{ Share() K }](p *Prepared, node string, prepare func() K) K {
	k, _ := get(p, node, func() (K, error) { return prepare(), nil }) // prepare cannot fail
	return k.Share()
}
