package kernels

import (
	"math"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Quantized (int8) prepared kernels — the runtime half of the paper's
// Section 3.1 model quantization. Weights are quantized symmetrically per
// output channel at prepare time; activations are quantized once on entry,
// in one vector pass, with either the calibrated per-tensor scale
// (quant.Calibrate) or, as a fallback, a per-sample max-abs scale derived on
// the fly. The int8 GEMM micro-kernel (matmul.PackedBInt8) accumulates in
// int32 and requantizes back to float32 (scale, bias, fused activation) as
// it stores, so the fp32↔int8 boundary costs one byte per input activation
// of scratch and nothing else.
//
// Every per-sample decision (quantization scale, pixel blocking) is a pure
// function of that sample's data and integer sums are exact, so a batch-N
// run is bitwise identical to N single runs on any number of lanes — the
// invariant the serving micro-batcher relies on, preserved by the
// conformance suite.

// quantizeAct is the definition of activation quantization, one value: scale
// by the inverse step, round half away from zero, clamp to ±127 — or, for a
// provably non-negative activation, to 0..254: the same step size with
// double the headroom above a calibrated scale — and truncate. NaN, whose
// conversion to an integer Go leaves to the platform, quantizes to 0; ±Inf
// clamp like any large value. The float32 conversion keeps the multiply
// from fusing into the add where the target could.
func quantizeAct(v, inv float32, unsigned bool) uint8 {
	r := float32(v * inv)
	if r != r {
		return 0
	}
	half := float32(0.5)
	if r < 0 && !unsigned {
		half = -0.5
	}
	lo, hi := quantBounds(unsigned)
	return uint8(int32(min(max(r+half, lo), hi)))
}

// quantBounds is the clamp of the signed and the unsigned quantization mode.
func quantBounds(unsigned bool) (lo, hi float32) {
	if unsigned {
		return 0, 254
	}
	return -127, 127
}

// quantizeInto quantizes src, whole channel packs (or any floats when lanes
// is 4), into dst: quantizeAct on lanes l < lanes of every pack and 0 on the
// rest, the pad lanes of a partial last pack, whatever they hold. With simd
// the bulk runs the AVX2 twin quantizeNC4, which takes the clamp per lane —
// [0, 0] on a pad lane — and the sign bit r's half carries, none if unsigned.
func quantizeInto(dst []uint8, src []float32, inv float32, unsigned bool, lanes int, simd bool) {
	done := 0
	if blocks := len(src) / 32; simd && blocks > 0 {
		var lo, hi [8]float32
		for i := range lo {
			if i%4 < lanes {
				lo[i], hi[i] = quantBounds(unsigned)
			}
		}
		sign := uint32(1 << 31)
		if unsigned {
			sign = 0
		}
		quantizeNC4(&dst[0], &src[0], blocks, inv, sign, &lo[0], &hi[0])
		done = blocks * 32
	}
	dst = dst[:len(src)]
	for i := done; i < len(src); i++ {
		dst[i] = 0
		if i%4 < lanes {
			dst[i] = quantizeAct(src[i], inv, unsigned)
		}
	}
}

// maxAbs32 scans a slice for its largest absolute value, NaN passed over;
// with simd the bulk runs the AVX twin maxAbs8.
func maxAbs32(s []float32, simd bool) float32 {
	var m float32
	if blocks := len(s) / 8; simd && blocks > 0 {
		m = maxAbs8(&s[0], blocks)
		s = s[blocks*8:]
	}
	for _, v := range s {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// maxAbsNC4Sample scans one NC4HW4 sample slice (C channels over hw spatial
// positions) for its largest logical absolute value. Pad lanes of a
// partially-used last channel block are excluded: arena-backed activations
// recycle bytes, so pads can hold stale values that must not inflate a
// dynamic quantization scale (or, worse, vary between batched and unbatched
// arena layouts).
func maxAbsNC4Sample(s []float32, C, hw int, simd bool) float32 {
	full := C / 4
	m := maxAbs32(s[:full*hw*4], simd)
	if rem := C - full*4; rem > 0 {
		tail := s[full*hw*4:]
		for p := 0; p < hw; p++ {
			m = max(m, maxAbs32(tail[p*4:p*4+rem], false))
		}
	}
	return m
}

// actScaleFromMax resolves the activation scale for one sample: the
// calibrated scale when available, otherwise derived from the (logical,
// pad-free) max-abs by the shared tensor.QuantScale policy — the same
// derivation calibration uses, so the two modes agree on identical data.
func actScaleFromMax(calibrated, maxAbs float32) float32 {
	if calibrated > 0 {
		return calibrated
	}
	return tensor.QuantScale(float64(maxAbs))
}

// quantizeWeightChannels quantizes the [channels][per] row-major weight
// symmetrically per channel: q = roundToEven(w/scale), scale = maxAbs/127
// (1 for an all-zero channel, so zero weights round-trip exactly).
func quantizeWeightChannels(w []float32, channels, per int) (q []int8, scales []float32) {
	q = make([]int8, channels*per)
	scales = make([]float32, channels)
	for c := 0; c < channels; c++ {
		row := w[c*per : (c+1)*per]
		scale := tensor.QuantScale(float64(maxAbs32(row, false)))
		scales[c] = scale
		for i, v := range row {
			r := math.RoundToEven(float64(v / scale))
			if r > 127 {
				r = 127
			}
			if r < -127 {
				r = -127
			}
			q[c*per+i] = int8(r)
		}
	}
	return q, scales
}

// ---------------------------------------------------------------------------
// QuantConv: group-1 convolution as quantize once → int8 tap GEMM.

// QuantConv is the prepared int8 convolution for group-1 convs, 1×1 and k×k
// alike: each sample of the NC4HW4 source is quantized into a byte image of
// the same geometry, and matmul.PackedBInt8.MulTapsNC4Into sums every run of
// adjacent output pixels over the kernel taps that fall inside the image —
// the zero point is 0, so a tap outside it contributes the exact 0 a padded
// patch would — requantizing into the NC4HW4 destination as it stores. The
// runs are cut as SlidingConv cuts them (tapGeom); there is no im2col matrix
// and no int32 product.
type QuantConv struct {
	attrs   graph.Conv2DAttrs
	ic, oc  int
	packed  *matmul.PackedBInt8 // [kh·kw][ic up to whole packs][oc]
	wScales []float32           // per-output-channel weight scales
	// rq.Scale is the per-channel inScale·wScale, refreshed per sample.
	rq matmul.Requant
	// InputScale is the calibrated activation scale (quant.Calibrate); zero
	// derives a per-sample max-abs scale at run time.
	InputScale float32
	// Unsigned quantizes the input as non-negative bytes. Only set it when
	// the input tensor is provably ≥ 0 (optimizer.PlanInt8's dataflow pass).
	Unsigned bool
	simd     bool // quantize with the AVX2 kernel (matmul.HaveAVX2)

	rs     quantConvRun
	quantT quantConvQuantize
}

// quantConvRun is the geometry of one Run and the sample it is on.
type quantConvRun struct {
	tapGeom
	s, d   []float32 // the current sample
	q      []uint8   // its quantized image
	inv    float32
	blocks int // four-pixel blocks per output row
}

type quantConvQuantize struct{ c *QuantConv }

// PrepareQuantConv quantizes the [oc, ic, kh, kw] group-1 weight per output
// channel and packs it into int8 GEMM panels, rows in (ky, kx, c) order with
// every tap's channels padded to whole packs. inputScale zero means derive
// per sample at run time.
func PrepareQuantConv(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs, inputScale float32) *QuantConv {
	oc, ic := weight.Dim(0), weight.Dim(1)
	taps := a.KernelH * a.KernelW
	c := &QuantConv{attrs: *a, ic: ic, oc: oc, InputScale: inputScale, simd: matmul.HaveAVX2()}
	q, scales := quantizeWeightChannels(weight.Data(), oc, ic*taps)
	c.wScales = scales
	icp := tensor.UpDiv(ic, 4) * 4
	bT := make([]int8, taps*icp*oc)
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			for t := 0; t < taps; t++ {
				bT[(t*icp+i)*oc+o] = q[(o*ic+i)*taps+t]
			}
		}
	}
	c.packed = matmul.PackBInt8(bT, taps*icp, oc)
	cols := tensor.UpDiv(oc, matmul.PanelWidthInt8) * matmul.PanelWidthInt8
	c.rq.Scale, c.rq.Bias = make([]float32, cols), make([]float32, cols)
	if bias != nil {
		copy(c.rq.Bias, bias.Data())
	}
	c.rq.Lo, c.rq.Hi = clampBounds(a.ReLU, a.ReLU6)
	c.quantT.c = c
	return c
}

// QuantConvWorkspaceFloats is the planner requirement of a QuantConv over an
// [ic, h, w] input: one sample's quantized image, a byte per activation
// (pad lanes included), counted in float32 units.
func QuantConvWorkspaceFloats(ic, h, w int) int { return tensor.UpDiv(ic, 4) * h * w }

// Run executes the quantized convolution on the pool. src and dst must be
// NC4HW4. workspace may be nil or at least QuantConvWorkspaceFloats of the
// input; with a planner-provided workspace, steady-state calls are
// allocation-free.
func (c *QuantConv) Run(dst, src *tensor.Tensor, p *sched.Pool, workspace []float32) {
	a := &c.attrs
	N, H, W := src.Batch(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	r := &c.rs
	*r = quantConvRun{tapGeom: newTapGeom(a, H, W, OH, OW)}
	if a.KernelH == 1 && a.KernelW == 1 && r.sh == 1 && r.sw == 1 && r.ph == 0 && r.pw == 0 {
		// One row of H·W pixels: only its last block of four can be short.
		r.H, r.W, r.OH, r.OW, r.xr = 1, H*W, 1, OH*OW, OH*OW
	}
	r.blocks = tensor.UpDiv(r.OW, 4)
	srcLen, dstLen := tensor.UpDiv(c.ic, 4)*r.srcPack, tensor.UpDiv(c.oc, 4)*r.dstPack
	r.q, _ = carveBytes(workspace, srcLen)
	lanes := p.Lanes()
	for n := 0; n < N; n++ {
		r.s = src.Data()[n*srcLen : (n+1)*srcLen]
		r.d = dst.Data()[n*dstLen : (n+1)*dstLen]
		var m float32
		if c.InputScale == 0 {
			m = maxAbsNC4Sample(r.s, c.ic, H*W, c.simd)
		}
		scale := actScaleFromMax(c.InputScale, m)
		r.inv = 1 / scale
		for o, ws := range c.wScales {
			c.rq.Scale[o] = scale * ws
		}
		p.Run(srcLen/4, sched.Chunk(srcLen/4, lanes, elemChunksPerLane), &c.quantT)
		p.Run(r.OH*r.blocks, sched.Chunk(r.OH*r.blocks, lanes, elemChunksPerLane), c)
	}
}

// RunChunk quantizes source pixels start..end of the sample's pack-major
// pixel sequence, cut at pack boundaries: only the last pack has pad lanes.
func (t *quantConvQuantize) RunChunk(_, start, end int) {
	c := t.c
	r := &c.rs
	hw := r.srcPack / 4
	for i := start; i < end; {
		pack := i / hw
		j := min(end, (pack+1)*hw)
		lanes := min(4, c.ic-pack*4)
		quantizeInto(r.q[i*4:j*4], r.s[i*4:j*4], r.inv, c.Unsigned, lanes, c.simd)
		i = j
	}
}

// RunChunk implements sched.Task over (output row, four-pixel block) items:
// the range is cut at row ends and each piece into MulTapsNC4Into runs by
// runAt, SlidingConv's way.
func (c *QuantConv) RunChunk(_, start, end int) {
	r := &c.rs
	icp := tensor.UpDiv(c.ic, 4) * 4
	var buf [64]matmul.Tap // a run's tap list; only a kernel past 8×8 spills to the heap
	for item := start; item < end; {
		oy, b0 := item/r.blocks, item%r.blocks
		b1 := min(r.blocks, b0+end-item)
		item += b1 - b0
		dst := r.d[oy*r.OW*4:]
		for x, xEnd := b0*4, min(b1*4, r.OW); x < xEnd; {
			x1, taps := r.runAt(buf[:0], oy, x, xEnd, c.attrs.KernelH, c.attrs.KernelW, icp)
			c.packed.MulTapsNC4Into(dst[x*4:], r.dstPack, r.q, r.srcPack, r.sw*4, x1-x, taps, c.ic, c.Unsigned, &c.rq)
			x = x1
		}
	}
}

// ---------------------------------------------------------------------------
// QuantInnerProduct: int8 fully-connected layer.

// QuantInnerProduct is the prepared int8 fully-connected kernel: each input
// row is quantized with its per-sample (or calibrated) scale and multiplied
// against the panel-packed int8 weight, requantizing with per-output-channel
// scales.
type QuantInnerProduct struct {
	attrs    graph.InnerProductAttrs
	features int
	packed   *matmul.PackedBInt8
	wScales  []float32
	bias     []float32
	// InputScale is the calibrated activation scale; zero derives per row.
	InputScale float32
	// Unsigned quantizes rows as non-negative bytes (see QuantConv.Unsigned).
	Unsigned bool
	simd     bool // quantize with the AVX2 kernel (matmul.HaveAVX2)

	rs quantIPRun
}

type quantIPRun struct {
	s, d   []float32
	qa     []uint8
	acc    []int32
	scales []float32 // per-row quantization scale, filled at quantize time
}

// PrepareQuantInnerProduct quantizes the [out, features] weight per output
// channel and packs it into int8 GEMM panels.
func PrepareQuantInnerProduct(weight, bias *tensor.Tensor, a *graph.InnerProductAttrs, inputScale float32) *QuantInnerProduct {
	out := weight.Dim(0)
	features := weight.Dim(1)
	ip := &QuantInnerProduct{attrs: *a, features: features, InputScale: inputScale, simd: matmul.HaveAVX2()}
	q, scales := quantizeWeightChannels(weight.Data(), out, features)
	ip.wScales = scales
	bT := make([]int8, features*out)
	for o := 0; o < out; o++ {
		for i := 0; i < features; i++ {
			bT[i*out+o] = q[o*features+i]
		}
	}
	ip.packed = matmul.PackBInt8(bT, features, out)
	ip.bias = make([]float32, out)
	if bias != nil {
		copy(ip.bias, bias.Data())
	}
	return ip
}

// QuantInnerProductWorkspaceFloats is the planner requirement for a
// [batch, features] × [features, out] run, in float32 units: the quantized
// rows, the int32 product and the per-row scales.
func QuantInnerProductWorkspaceFloats(batch, features, out int) int {
	return bytesFloats(batch*features) + batch*out + batch
}

// Run executes the FC layer on NCHW buffers (src flattened per batch row).
// workspace may be nil or at least QuantInnerProductWorkspaceFloats floats.
func (ip *QuantInnerProduct) Run(dst, src *tensor.Tensor, p *sched.Pool, workspace []float32) {
	batch := src.Dim(0)
	out := ip.attrs.OutputCount
	qa, rest := carveBytes(workspace, batch*ip.features)
	acc, rest := carveInt32(rest, batch*out)
	scales := rest
	if len(scales) < batch {
		scales = make([]float32, batch)
	} else {
		scales = scales[:batch]
	}
	ip.rs = quantIPRun{s: src.Data(), d: dst.Data(), qa: qa, acc: acc, scales: scales}
	p.Run(batch, sched.Chunk(batch, p.Lanes(), 1), ip)
}

// RunChunk implements sched.Task over batch rows: quantize the rows, run the
// row-block int8 GEMM, requantize with bias and activation.
func (ip *QuantInnerProduct) RunChunk(_, start, end int) {
	r := &ip.rs
	out := ip.attrs.OutputCount
	f := ip.features
	for n := start; n < end; n++ {
		src := r.s[n*f : (n+1)*f]
		var m float32
		if ip.InputScale == 0 {
			m = maxAbs32(src, ip.simd) // flat NCHW rows carry no pad lanes
		}
		scale := actScaleFromMax(ip.InputScale, m)
		r.scales[n] = scale
		quantizeInto(r.qa[n*f:(n+1)*f], src, 1/scale, ip.Unsigned, 4, ip.simd)
	}
	ip.packed.MulRows(r.acc[start*out:end*out], r.qa[start*f:end*f], end-start, ip.Unsigned)
	for n := start; n < end; n++ {
		scale := r.scales[n]
		d := r.d[n*out : (n+1)*out]
		a := r.acc[n*out : (n+1)*out]
		for o := 0; o < out; o++ {
			v := float32(a[o])*(scale*ip.wScales[o]) + ip.bias[o]
			if ip.attrs.ReLU && v < 0 {
				v = 0
			}
			d[o] = v
		}
	}
}
