// Package converter implements the offline conversion stage of Figure 2:
// reading models from a frontend format (a pseudo-ONNX JSON dialect, since
// real protobuf frontends are out of scope offline), running the graph
// optimizer, and serializing to the engine's own compact binary format
// (".mnn" in the paper; ".mnng" here).
package converter

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// Magic and version of the binary format. Version 2 appends the calibrated
// activation-scale table (quant.Calibrate) after the weights; version-1
// files load fine with no scales. Version 3 adds the transformer op family
// (LayerNorm, GELU, MatMul, Transpose) to the attr codec; the container
// layout is unchanged, so v1/v2 files still load. A v2-only reader meeting
// a v3 file fails its version check up front — it never mis-parses the new
// attrs — which is why Load reports past-Version files with the typed
// ErrUnsupportedVersion instead of a generic parse error.
const (
	Magic   = 0x4D4E4E47 // "MNNG"
	Version = 3
)

// ErrUnsupportedVersion is returned by Load when the file's format version
// is newer than this reader supports (e.g. a v2-era reader handed a v3
// file). Test with errors.Is.
var ErrUnsupportedVersion = errors.New("converter: unsupported format version")

// chunkBytes is the size of the buffer weight data moves through on its way
// out: Save writes a tensor's values one chunk per call, never one per
// value. Load reads a tensor's bytes straight into the tensor.
const chunkBytes = 64 << 10

// littleEndian is whether this host stores a float32 as the file does, so
// that a tensor's bytes are its values as they are read.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

type writer struct {
	w   *bufio.Writer
	buf []byte // chunkBytes of encode buffer
	err error
}

func (w *writer) u32(v uint32) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(w.buf, v)
	_, w.err = w.w.Write(w.buf[:4])
}

// f32s encodes vs as little-endian float32 bit patterns, a chunk at a time.
func (w *writer) f32s(vs []float32) {
	for len(vs) > 0 && w.err == nil {
		n := min(len(vs), chunkBytes/4)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(w.buf[4*i:], math.Float32bits(v))
		}
		_, w.err = w.w.Write(w.buf[:4*n])
		vs = vs[n:]
	}
}

func (w *writer) i32(v int) { w.u32(uint32(int32(v))) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

func (w *writer) strs(ss []string) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *writer) f32(v float32) { w.u32(math.Float32bits(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.u32(1)
	} else {
		w.u32(0)
	}
}

func (w *writer) ints(vs []int) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.i32(v)
	}
}

type reader struct {
	r   *bufio.Reader
	buf [4]byte
	err error
}

// bytes fills b from the input; nothing once an error is recorded.
func (r *reader) bytes(b []byte) {
	if r.err == nil && len(b) > 0 {
		_, r.err = io.ReadFull(r.r, b)
	}
}

func (r *reader) u32() uint32 {
	if r.bytes(r.buf[:]); r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:])
}

// f32s fills dst with little-endian float32s, read in one piece straight
// into dst's memory: on a little-endian host those bytes are the values,
// NaN payloads included; elsewhere each word is turned around in place.
func (r *reader) f32s(dst []float32) {
	if len(dst) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 4*len(dst))
	if r.bytes(b); r.err != nil || littleEndian {
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func (r *reader) i32() int { return int(int32(r.u32())) }

// count reads a length or count of what, which must not pass 1<<20; 0 once
// an error is recorded.
func (r *reader) count(what string) int {
	n := r.u32()
	if r.err == nil && n > 1<<20 {
		r.err = fmt.Errorf("converter: %s %d too large", what, n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	b := make([]byte, r.count("string length"))
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
	}
	return string(b)
}

func (r *reader) strs() []string {
	out := make([]string, r.count("list length"))
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *reader) bool() bool { return r.u32() != 0 }

func (r *reader) ints() []int {
	out := make([]int, r.count("list length"))
	for i := range out {
		out[i] = r.i32()
	}
	return out
}

// Save serializes a graph to the binary format.
func Save(g *graph.Graph, out io.Writer) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		if a, ok := n.Attrs.(*graph.MatMulAttrs); n.Op == graph.OpAttention || ok && a.Residual != graph.NoResidual {
			return fmt.Errorf("converter: node %q is a session's own fused %v and has no model-file form", n.Name, n.Op)
		}
	}
	w := &writer{w: bufio.NewWriter(out), buf: make([]byte, chunkBytes)}
	w.u32(Magic)
	w.u32(Version)
	w.str(g.Name)
	w.strs(g.InputNames)
	w.strs(g.OutputNames)

	w.u32(uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		w.str(n.Name)
		w.u32(uint32(n.Op))
		w.strs(n.Inputs)
		w.strs(n.Outputs)
		w.strs(n.WeightNames)
		writeAttrs(w, n)
	}

	w.u32(uint32(len(g.Weights)))
	// Deterministic order: follow node weight references, then leftovers
	// sorted implicitly by first-reference; simpler: write in sorted order.
	for _, name := range sortedWeightNames(g) {
		t := g.Weights[name]
		w.str(name)
		w.u32(uint32(t.DType()))
		w.ints(t.Shape())
		switch t.DType() {
		case tensor.Float32:
			w.f32s(t.Data())
		case tensor.Int8:
			w.f32(t.Quant.Scale)
			if w.err == nil {
				raw := make([]byte, len(t.Int8Data()))
				for i, v := range t.Int8Data() {
					raw[i] = byte(v)
				}
				_, w.err = w.w.Write(raw)
			}
		default:
			return fmt.Errorf("converter: cannot serialize dtype %v", t.DType())
		}
	}

	// Calibrated activation scales (version 2), in sorted order for
	// deterministic output.
	scaleNames := make([]string, 0, len(g.ActScales))
	for name := range g.ActScales {
		scaleNames = append(scaleNames, name)
	}
	sort.Strings(scaleNames)
	w.u32(uint32(len(scaleNames)))
	for _, name := range scaleNames {
		w.str(name)
		w.f32(g.ActScales[name])
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func sortedWeightNames(g *graph.Graph) []string {
	names := make([]string, 0, len(g.Weights))
	for name := range g.Weights {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Load deserializes a graph from the binary format.
func Load(in io.Reader) (*graph.Graph, error) {
	return load(in, (*reader).f32s)
}

// load is Load with the float32 tensor decode passed in, so tests can hold
// the bulk decode to a per-value one.
func load(in io.Reader, f32s func(*reader, []float32)) (*graph.Graph, error) {
	r := &reader{r: bufio.NewReader(in)}
	if m := r.u32(); m != Magic {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("converter: bad magic %#x", m)
	}
	version := r.u32()
	if version < 1 || version > Version {
		return nil, fmt.Errorf("%w: file is v%d, this reader supports v1-v%d", ErrUnsupportedVersion, version, Version)
	}
	g := graph.New(r.str())
	g.InputNames = r.strs()
	g.OutputNames = r.strs()

	nNodes := r.count("node count")
	if r.err != nil {
		return nil, r.err
	}
	for range nNodes {
		n := &graph.Node{
			Name: r.str(),
			Op:   graph.OpType(r.u32()),
		}
		n.Inputs = r.strs()
		n.Outputs = r.strs()
		n.WeightNames = r.strs()
		if err := readAttrs(r, n); err != nil {
			return nil, err
		}
		g.AddNode(n)
	}

	nWeights := r.count("weight count")
	if r.err != nil {
		return nil, r.err
	}
	for range nWeights {
		name := r.str()
		dt := tensor.DataType(r.u32())
		shape := r.ints()
		if r.err != nil {
			return nil, r.err
		}
		if err := checkWeightShape(name, shape); err != nil {
			return nil, err
		}
		var t *tensor.Tensor
		switch dt {
		case tensor.Float32:
			t = tensor.New(shape...)
			f32s(r, t.Data())
		case tensor.Int8:
			t = tensor.NewInt8(tensor.QuantParams{Scale: r.f32()}, shape...)
			if d := t.Int8Data(); len(d) > 0 {
				r.bytes(unsafe.Slice((*byte)(unsafe.Pointer(&d[0])), len(d)))
			}
		default:
			return nil, fmt.Errorf("converter: weight %q has unsupported dtype %v", name, dt)
		}
		if r.err != nil {
			return nil, fmt.Errorf("converter: weight %q: %w", name, r.err)
		}
		g.AddWeight(name, t)
	}

	if version >= 2 {
		nScales := r.count("activation-scale count")
		if r.err != nil {
			return nil, r.err
		}
		if nScales > 0 {
			g.ActScales = make(map[string]float32, nScales)
			for range nScales {
				name := r.str()
				g.ActScales[name] = r.f32()
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("converter: loaded graph invalid: %w", err)
	}
	return g, nil
}

// checkWeightShape rejects corrupt weight shapes before tensor allocation:
// negative dims would panic makeslice and absurd element counts would OOM
// on untrusted model files.
func checkWeightShape(name string, shape []int) error {
	elems := int64(1)
	for _, d := range shape {
		if d < 0 {
			return fmt.Errorf("converter: weight %q has negative dim in shape %v", name, shape)
		}
		elems *= int64(d)
		if elems > 1<<28 {
			return fmt.Errorf("converter: weight %q shape %v too large", name, shape)
		}
	}
	return nil
}

func writeAttrs(w *writer, n *graph.Node) {
	switch a := n.Attrs.(type) {
	case *graph.InputAttrs:
		w.ints(a.Shape)
	case *graph.Conv2DAttrs:
		w.i32(a.KernelH)
		w.i32(a.KernelW)
		w.i32(a.StrideH)
		w.i32(a.StrideW)
		w.i32(a.DilationH)
		w.i32(a.DilationW)
		w.i32(a.PadH)
		w.i32(a.PadW)
		w.u32(uint32(a.PadMode))
		w.i32(a.Group)
		w.i32(a.OutputCount)
		w.i32(a.InputCount)
		w.bool(a.ReLU)
		w.bool(a.ReLU6)
	case *graph.PoolAttrs:
		w.u32(uint32(a.Type))
		w.i32(a.KernelH)
		w.i32(a.KernelW)
		w.i32(a.StrideH)
		w.i32(a.StrideW)
		w.i32(a.PadH)
		w.i32(a.PadW)
		w.u32(uint32(a.PadMode))
		w.bool(a.Global)
		w.bool(a.CountIncludePad)
	case *graph.BatchNormAttrs:
		w.f32(a.Eps)
	case *graph.ScaleAttrs:
		w.bool(a.HasBias)
	case *graph.EltwiseAttrs:
		w.u32(uint32(a.Type))
		w.bool(a.ReLU)
	case *graph.ConcatAttrs:
		w.i32(a.Axis)
	case *graph.InnerProductAttrs:
		w.i32(a.OutputCount)
		w.bool(a.ReLU)
	case *graph.SoftmaxAttrs:
		w.i32(a.Axis)
	case *graph.FlattenAttrs:
		w.i32(a.Axis)
	case *graph.ReshapeAttrs:
		w.ints(a.Shape)
	case *graph.DropoutAttrs:
		w.f32(a.Ratio)
	case *graph.PaddingAttrs:
		w.i32(a.Top)
		w.i32(a.Bottom)
		w.i32(a.Left)
		w.i32(a.Right)
	case *graph.LayerNormAttrs:
		w.f32(a.Eps)
	case *graph.MatMulAttrs:
		w.i32(a.Heads)
		w.bool(a.TransposeB)
		w.f32(a.Scale)
	case *graph.TransposeAttrs:
		w.ints(a.Perm)
	case nil:
		// activation ops carry no attrs
	default:
		w.err = fmt.Errorf("converter: cannot serialize attrs %T", n.Attrs)
	}
}

func readAttrs(r *reader, n *graph.Node) error {
	switch n.Op {
	case graph.OpInput:
		n.Attrs = &graph.InputAttrs{Shape: r.ints()}
	case graph.OpConv2D, graph.OpDeconv2D:
		a := &graph.Conv2DAttrs{}
		a.KernelH = r.i32()
		a.KernelW = r.i32()
		a.StrideH = r.i32()
		a.StrideW = r.i32()
		a.DilationH = r.i32()
		a.DilationW = r.i32()
		a.PadH = r.i32()
		a.PadW = r.i32()
		a.PadMode = graph.PadMode(r.u32())
		a.Group = r.i32()
		a.OutputCount = r.i32()
		a.InputCount = r.i32()
		a.ReLU = r.bool()
		a.ReLU6 = r.bool()
		n.Attrs = a
	case graph.OpPool:
		a := &graph.PoolAttrs{}
		a.Type = graph.PoolType(r.u32())
		a.KernelH = r.i32()
		a.KernelW = r.i32()
		a.StrideH = r.i32()
		a.StrideW = r.i32()
		a.PadH = r.i32()
		a.PadW = r.i32()
		a.PadMode = graph.PadMode(r.u32())
		a.Global = r.bool()
		a.CountIncludePad = r.bool()
		n.Attrs = a
	case graph.OpBatchNorm:
		n.Attrs = &graph.BatchNormAttrs{Eps: r.f32()}
	case graph.OpScale:
		n.Attrs = &graph.ScaleAttrs{HasBias: r.bool()}
	case graph.OpEltwise:
		n.Attrs = &graph.EltwiseAttrs{Type: graph.EltwiseType(r.u32()), ReLU: r.bool()}
	case graph.OpConcat:
		n.Attrs = &graph.ConcatAttrs{Axis: r.i32()}
	case graph.OpInnerProduct:
		n.Attrs = &graph.InnerProductAttrs{OutputCount: r.i32(), ReLU: r.bool()}
	case graph.OpSoftmax:
		n.Attrs = &graph.SoftmaxAttrs{Axis: r.i32()}
	case graph.OpFlatten:
		n.Attrs = &graph.FlattenAttrs{Axis: r.i32()}
	case graph.OpReshape:
		n.Attrs = &graph.ReshapeAttrs{Shape: r.ints()}
	case graph.OpDropout:
		n.Attrs = &graph.DropoutAttrs{Ratio: r.f32()}
	case graph.OpPadding:
		n.Attrs = &graph.PaddingAttrs{Top: r.i32(), Bottom: r.i32(), Left: r.i32(), Right: r.i32()}
	case graph.OpLayerNorm:
		n.Attrs = &graph.LayerNormAttrs{Eps: r.f32()}
	case graph.OpMatMul:
		n.Attrs = &graph.MatMulAttrs{Heads: r.i32(), TransposeB: r.bool(), Scale: r.f32()}
	case graph.OpTranspose:
		n.Attrs = &graph.TransposeAttrs{Perm: r.ints()}
	case graph.OpReLU, graph.OpReLU6, graph.OpSigmoid, graph.OpTanh, graph.OpGELU:
		n.Attrs = nil
	default:
		return fmt.Errorf("converter: unknown op %d for node %q", n.Op, n.Name)
	}
	return r.err
}
