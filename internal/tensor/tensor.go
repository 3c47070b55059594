// Package tensor provides the dense tensor type used throughout the engine,
// including the NC4HW4 packed layout that MNN introduces for SIMD-friendly
// kernels (Section 3.3.1 of the paper).
//
// A Tensor owns a flat []float32 buffer plus shape and layout metadata.
// Layout conversions between NCHW, NHWC and NC4HW4 are lossless round trips.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Layout describes how the logical N×C×H×W elements are arranged in memory.
type Layout uint8

const (
	// NCHW is the canonical row-major layout: index = ((n*C+c)*H+h)*W+w.
	NCHW Layout = iota
	// NHWC places channels innermost: index = ((n*H+h)*W+w)*C+c.
	NHWC
	// NC4HW4 packs channels into groups of 4 so that 4 channel values of
	// the same spatial position are contiguous:
	// index = (((n*ceil(C/4)+c/4)*H+h)*W+w)*4 + c%4.
	// This is the layout MNN uses to vectorize the Winograd Hadamard stage
	// and most CPU kernels (paper Section 3.3.1, "NC4HW4").
	NC4HW4
)

// Pack is the channel-packing factor of the NC4HW4 layout (V in the paper).
const Pack = 4

func (l Layout) String() string {
	switch l {
	case NCHW:
		return "NCHW"
	case NHWC:
		return "NHWC"
	case NC4HW4:
		return "NC4HW4"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}

// DataType enumerates element types. The engine computes in float32; int8 is
// used by the post-training quantization path.
type DataType uint8

const (
	Float32 DataType = iota
	Int8
)

func (d DataType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(d))
	}
}

// Tensor is a dense n-dimensional array. Rank-4 tensors are interpreted as
// N×C×H×W regardless of the physical Layout. Lower-rank tensors (biases,
// FC weights) always use the trivial row-major layout and report NCHW.
type Tensor struct {
	shape  []int
	layout Layout
	dtype  DataType

	// Exactly one of the following backing stores is non-nil, matching dtype.
	f32 []float32
	i8  []int8
	// planned is the whole float32 buffer once SetBoundedShape has cut f32
	// down to a smaller shape (nil until then: f32 is the whole buffer).
	planned []float32

	// Quant carries quantization parameters when dtype == Int8.
	Quant *QuantParams
}

// QuantParams holds symmetric per-tensor quantization metadata.
type QuantParams struct {
	Scale     float32 // real = quantized * Scale
	ZeroPoint int32   // always 0 for symmetric quantization
}

// New allocates a zero-filled float32 tensor with the given shape in NCHW.
func New(shape ...int) *Tensor {
	return NewWithLayout(NCHW, shape...)
}

// NewWithLayout allocates a zero-filled float32 tensor in the given layout.
// For NC4HW4 the physical buffer is padded up to a multiple of Pack channels.
func NewWithLayout(layout Layout, shape ...int) *Tensor {
	t := &Tensor{shape: cloneInts(shape), layout: layout, dtype: Float32}
	t.f32 = make([]float32, t.PhysicalLen())
	return t
}

// NewInt8 allocates a zero-filled int8 tensor (NCHW physical order).
func NewInt8(q QuantParams, shape ...int) *Tensor {
	t := &Tensor{shape: cloneInts(shape), layout: NCHW, dtype: Int8, Quant: &q}
	t.i8 = make([]int8, t.PhysicalLen())
	return t
}

// FromData wraps data (not copied) as an NCHW float32 tensor.
// len(data) must equal the element count of shape.
func FromData(data []float32, shape ...int) *Tensor {
	n := NumElements(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromData length %d != shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: cloneInts(shape), layout: NCHW, dtype: Float32, f32: data}
}

// WrapBuffer wraps a pre-allocated buffer (e.g. an arena slice from the
// memory planner) as a tensor of the given layout. The buffer length must be
// at least PhysicalLen for the shape/layout; the tensor's Data ends there,
// capacity included, so nothing reached through it runs past the wrapped
// region.
func WrapBuffer(buf []float32, layout Layout, shape ...int) *Tensor {
	t := &Tensor{shape: cloneInts(shape), layout: layout, dtype: Float32}
	need := t.PhysicalLen()
	if len(buf) < need {
		panic(fmt.Sprintf("tensor: WrapBuffer length %d < required %d for %v %s", len(buf), need, shape, layout))
	}
	t.f32 = buf[:need:need]
	return t
}

// Shape returns the logical shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Layout returns the physical layout.
func (t *Tensor) Layout() Layout { return t.layout }

// DType returns the element type.
func (t *Tensor) DType() DataType { return t.dtype }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumElements returns the logical element count (unpadded).
func (t *Tensor) NumElements() int { return NumElements(t.shape) }

// Data returns the raw float32 backing buffer (physical order, including
// NC4HW4 padding). Panics for non-float32 tensors.
func (t *Tensor) Data() []float32 {
	if t.dtype != Float32 {
		panic("tensor: Data called on " + t.dtype.String() + " tensor")
	}
	return t.f32
}

// Int8Data returns the raw int8 backing buffer.
func (t *Tensor) Int8Data() []int8 {
	if t.dtype != Int8 {
		panic("tensor: Int8Data called on " + t.dtype.String() + " tensor")
	}
	return t.i8
}

// Batch, Channels, Height, Width interpret the tensor as N×C×H×W.
// They panic if the rank is not 4.
func (t *Tensor) Batch() int    { t.mustRank4(); return t.shape[0] }
func (t *Tensor) Channels() int { t.mustRank4(); return t.shape[1] }
func (t *Tensor) Height() int   { t.mustRank4(); return t.shape[2] }
func (t *Tensor) Width() int    { t.mustRank4(); return t.shape[3] }

func (t *Tensor) mustRank4() {
	if len(t.shape) != 4 {
		panic(fmt.Sprintf("tensor: rank-4 accessor on rank-%d tensor", len(t.shape)))
	}
}

// PhysicalLen returns the number of elements in the backing buffer,
// including NC4HW4 channel padding.
func (t *Tensor) PhysicalLen() int { return PhysicalLen(t.layout, t.shape) }

// PhysicalLen computes the backing-buffer length for a shape in a layout.
func PhysicalLen(layout Layout, shape []int) int {
	if layout == NC4HW4 {
		if len(shape) != 4 {
			panic(fmt.Sprintf("tensor: NC4HW4 requires rank 4, got %v", shape))
		}
		n, c, h, w := shape[0], shape[1], shape[2], shape[3]
		return n * UpDiv(c, Pack) * h * w * Pack
	}
	return NumElements(shape)
}

// NumElements multiplies the dims of shape. An empty shape has one element
// (scalar); any zero dim yields zero.
func NumElements(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// UpDiv returns ceil(a/b) for positive b.
func UpDiv(a, b int) int { return (a + b - 1) / b }

// AlignUp rounds a up to the next multiple of b.
func AlignUp(a, b int) int { return UpDiv(a, b) * b }

// At reads the element at NCHW logical coordinates regardless of layout.
func (t *Tensor) At(n, c, h, w int) float32 {
	return t.f32[t.offset(n, c, h, w)]
}

// Set writes the element at NCHW logical coordinates regardless of layout.
func (t *Tensor) Set(n, c, h, w int, v float32) {
	t.f32[t.offset(n, c, h, w)] = v
}

func (t *Tensor) offset(n, c, h, w int) int {
	t.mustRank4()
	N, C, H, W := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if n < 0 || n >= N || c < 0 || c >= C || h < 0 || h >= H || w < 0 || w >= W {
		panic(fmt.Sprintf("tensor: index (%d,%d,%d,%d) out of range %v", n, c, h, w, t.shape))
	}
	switch t.layout {
	case NCHW:
		return ((n*C+c)*H+h)*W + w
	case NHWC:
		return ((n*H+h)*W+w)*C + c
	case NC4HW4:
		c4 := UpDiv(C, Pack)
		return (((n*c4+c/Pack)*H+h)*W+w)*Pack + c%Pack
	default:
		panic("tensor: unknown layout")
	}
}

// Reshape returns a tensor sharing the same buffer with a new shape. Only
// valid for NCHW/NHWC-free tensors (physical order == logical order) whose
// element count matches.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if t.layout == NC4HW4 {
		panic("tensor: Reshape on NC4HW4 tensor; convert layout first")
	}
	if NumElements(shape) != t.NumElements() {
		panic(fmt.Sprintf("tensor: Reshape %v -> %v changes element count", t.shape, shape))
	}
	return &Tensor{shape: cloneInts(shape), layout: NCHW, dtype: t.dtype, f32: t.f32, i8: t.i8, Quant: t.Quant}
}

// SetBoundedShape overwrites the tensor's shape in place and cuts Data down
// to the shape's physical length, within the buffer the tensor was created
// with (its planned, max-shape buffer). This is the dynamic-shape primitive:
// the logical content becomes the prefix of the planned buffer, laid out as
// the tensor's layout lays out the new shape (in NC4HW4 the pixel count and
// batch vary, the pack stride follows them). Data's capacity ends with the
// shape too, so a kernel still working at a larger, earlier extent panics
// instead of reading stale bytes. The new shape must have the same rank and
// fit the capacity. No allocation occurs.
func (t *Tensor) SetBoundedShape(shape []int) error {
	if len(shape) != len(t.shape) {
		return fmt.Errorf("tensor: SetBoundedShape rank %d -> %d", len(t.shape), len(shape))
	}
	need := PhysicalLen(t.layout, shape)
	if need > t.Capacity() {
		return fmt.Errorf("tensor: SetBoundedShape %v needs %d floats, buffer holds %d", shape, need, t.Capacity())
	}
	if t.planned == nil {
		t.planned = t.f32
	}
	copy(t.shape, shape)
	t.f32 = t.planned[:need:need]
	return nil
}

// SetBoundedView is SetBoundedShape for a view whose place in a larger
// buffer moves with the shape (a channel range of an NC4HW4 concatenation
// at batch 1, whose pack stride follows H·W): the tensor becomes the shape's
// physical length of base from float off on, capacity included. The new
// shape must have the same rank and fit base. No allocation occurs.
func (t *Tensor) SetBoundedView(base []float32, off int, shape []int) error {
	if len(shape) != len(t.shape) {
		return fmt.Errorf("tensor: SetBoundedView rank %d -> %d", len(t.shape), len(shape))
	}
	need := PhysicalLen(t.layout, shape)
	if off < 0 || off+need > len(base) {
		return fmt.Errorf("tensor: SetBoundedView %v at float %d needs %d floats, base holds %d", shape, off, need, len(base))
	}
	copy(t.shape, shape)
	t.f32 = base[off : off+need : off+need]
	return nil
}

// Capacity is the float32 count of the buffer the tensor was created with:
// the largest PhysicalLen SetBoundedShape accepts.
func (t *Tensor) Capacity() int {
	if t.planned != nil {
		return len(t.planned)
	}
	return len(t.f32)
}

// MinNormalScale is the smallest normal float32 (0x1p-126), the floor for
// symmetric int8 quantization scales: a subnormal scale loses mantissa
// precision and breaks the error ≤ scale/2 round-trip bound.
const MinNormalScale = 1.1754943508222875e-38

// QuantScale derives the symmetric int8 quantization scale from a max-abs
// range observation: maxAbs/127, where an all-zero range yields scale 1 (so
// exact zeros round-trip exactly) and subnormal results clamp to
// MinNormalScale. Every scale producer — the offline quantizer, the
// calibration pass, and the runtime kernels' dynamic per-sample path — must
// derive scales through this one function so calibrated and dynamic
// quantization can never diverge on the same data.
func QuantScale(maxAbs float64) float32 {
	scale := float32(maxAbs / 127)
	if scale == 0 {
		return 1
	}
	if scale < MinNormalScale {
		return MinNormalScale
	}
	return scale
}

// MaxAbs returns the largest absolute value among the logical elements of
// t. NC4HW4 padding lanes are excluded: arena-backed buffers recycle bytes
// across steps, so pad lanes can hold stale values that must not leak into
// range observations (quantization scales, calibration).
func (t *Tensor) MaxAbs() float64 {
	if t.layout != NC4HW4 || len(t.shape) != 4 || t.shape[1]%Pack == 0 {
		// No pad lanes: the physical buffer is exactly the logical content.
		var m float32
		for _, v := range t.f32 {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		return float64(m)
	}
	N, C, H, W := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	c4 := UpDiv(C, Pack)
	full := C / Pack // fully-used channel blocks
	hw := H * W
	var m float32
	for n := 0; n < N; n++ {
		base := n * c4 * hw * Pack
		for _, v := range t.f32[base : base+full*hw*Pack] {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		rem := C - full*Pack
		tail := t.f32[base+full*hw*Pack : base+c4*hw*Pack]
		for p := 0; p < hw; p++ {
			for l := 0; l < rem; l++ {
				v := tail[p*Pack+l]
				if v < 0 {
					v = -v
				}
				if v > m {
					m = v
				}
			}
		}
	}
	return float64(m)
}

// Dequantize converts a symmetric int8 tensor back to a fresh float32
// tensor using its Quant scale. It errors on non-int8 input (use the tensor
// directly) so callers on the model-load path can reject corrupt data
// instead of panicking.
func (t *Tensor) Dequantize() (*Tensor, error) {
	if t.dtype != Int8 {
		return nil, fmt.Errorf("tensor: Dequantize on %s tensor (want int8)", t.dtype)
	}
	scale := float64(1)
	if t.Quant != nil {
		scale = float64(t.Quant.Scale)
	}
	out := New(t.shape...)
	d := out.Data()
	for i, v := range t.i8 {
		// Compute in float64 and clamp: for a tensor whose max-abs sits at
		// the top of the float32 range, 127·scale can round past MaxFloat32
		// and a float32 multiply would overflow the round trip to ±Inf.
		x := float64(v) * scale
		if x > math.MaxFloat32 {
			x = math.MaxFloat32
		} else if x < -math.MaxFloat32 {
			x = -math.MaxFloat32
		}
		d[i] = float32(x)
	}
	return out, nil
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{shape: cloneInts(t.shape), layout: t.layout, dtype: t.dtype}
	if t.Quant != nil {
		q := *t.Quant
		out.Quant = &q
	}
	switch t.dtype {
	case Float32:
		out.f32 = append([]float32(nil), t.f32...)
	case Int8:
		out.i8 = append([]int8(nil), t.i8...)
	}
	return out
}

// Zero clears the backing buffer.
func (t *Tensor) Zero() {
	switch t.dtype {
	case Float32:
		for i := range t.f32 {
			t.f32[i] = 0
		}
	case Int8:
		for i := range t.i8 {
			t.i8[i] = 0
		}
	}
}

// ToLayout converts the tensor into the target layout, returning a new
// tensor (or the receiver when the layout already matches).
func (t *Tensor) ToLayout(target Layout) *Tensor {
	if t.layout == target {
		return t
	}
	if len(t.shape) != 4 {
		// Non-rank-4 tensors are layout-free; just relabel.
		out := t.Clone()
		out.layout = target
		return out
	}
	out := NewWithLayout(target, t.shape...)
	out.CopyFrom(t)
	return out
}

// CopyFrom copies logical contents from src (shapes must match; layouts may
// differ). Identical layouts are one copy; NCHW ↔ NC4HW4, the conversion on
// every engine input and output, is repack. The pad lanes of an NC4HW4
// destination's last channel pack are not written: they keep what they held.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !EqualShape(t.shape, src.shape) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	if t.layout == src.layout || len(t.shape) != 4 {
		copy(t.f32, src.f32)
		return
	}
	N, C, H, W := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	switch {
	case t.layout == NC4HW4 && src.layout == NCHW:
		repack(t.f32, src.f32, N, C, H*W, true)
	case t.layout == NCHW && src.layout == NC4HW4:
		repack(src.f32, t.f32, N, C, H*W, false)
	default:
		for n := 0; n < N; n++ {
			for c := 0; c < C; c++ {
				for h := 0; h < H; h++ {
					for w := 0; w < W; w++ {
						t.Set(n, c, h, w, src.At(n, c, h, w))
					}
				}
			}
		}
	}
}

// repack moves n×c planes of hw pixels between an NC4HW4 buffer and an NCHW
// one: into the packed buffer when pack is set, out of it otherwise. A whole
// pack moves pixel by pixel, four channels at once; a partial last pack moves
// plane by plane, so that its pad lanes are neither read nor written.
func repack(packed, planar []float32, n, c, hw int, pack bool) {
	c4 := UpDiv(c, Pack)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			pl := planar[(b*c+ch)*hw:]
			q := packed[(b*c4+ch/Pack)*hw*Pack+ch%Pack:]
			switch {
			case ch%Pack == 0 && c-ch >= Pack:
				p0, p1, p2, p3 := pl[:hw], pl[hw:2*hw], pl[2*hw:3*hw], pl[3*hw:4*hw]
				for p := range p0 {
					if px := q[p*Pack : p*Pack+Pack]; pack {
						px[0], px[1], px[2], px[3] = p0[p], p1[p], p2[p], p3[p]
					} else {
						p0[p], p1[p], p2[p], p3[p] = px[0], px[1], px[2], px[3]
					}
				}
				ch += Pack - 1
			case pack:
				for p, v := range pl[:hw] {
					q[p*Pack] = v
				}
			default:
				for p := range pl[:hw] {
					pl[p] = q[p*Pack]
				}
			}
		}
	}
}

// EqualShape reports whether two shapes are identical.
func EqualShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between the
// logical contents of a and b (layouts may differ). Shapes must match.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !EqualShape(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", a.shape, b.shape))
	}
	if len(a.shape) == 4 {
		var m float64
		N, C, H, W := a.shape[0], a.shape[1], a.shape[2], a.shape[3]
		for n := 0; n < N; n++ {
			for c := 0; c < C; c++ {
				for h := 0; h < H; h++ {
					for w := 0; w < W; w++ {
						d := math.Abs(float64(a.At(n, c, h, w)) - float64(b.At(n, c, h, w)))
						if d > m {
							m = d
						}
					}
				}
			}
		}
		return m
	}
	var m float64
	for i := range a.f32 {
		d := math.Abs(float64(a.f32[i]) - float64(b.f32[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// String renders a compact description, e.g. "Tensor[1,64,56,56] NC4HW4 float32".
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor[")
	for i, d := range t.shape {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteString("] ")
	b.WriteString(t.layout.String())
	b.WriteByte(' ')
	b.WriteString(t.dtype.String())
	return b.String()
}

func cloneInts(s []int) []int { return append([]int(nil), s...) }
