package core

import "mnn/internal/graph"

// Int8 routing. An int8 engine runs a group-1 convolution on the int8 tap
// GEMM (kernels.QuantConv) only where that is cheaper than the fp32 scheme
// its decision chose. Both sides are priced in MLSYSIM's form — work ÷ the
// measured rate of the work's class — with the rates of the host's int8
// kernel level:
//
//   - int8: ⌈ic/4⌉·4·kh·kw·oc multiply-adds per output pixel (every tap's
//     channels padded to whole quads) at the int8 rate, plus the quantize
//     pass over the ⌈ic/4⌉·4·ih·iw input activations;
//   - fp32 GEMM class (1×1, sliding, im2col): ic·kh·kw·oc multiply-adds per
//     output pixel at the GEMM rate;
//   - fp32 Winograd: the Equation 2 cost of its tiles (winoCostPerPixel) at
//     the Winograd rate, which ramps with the reduction depth ic of the
//     per-position GEMM as ic/(ic+winogradHalfDepth).

// int8Rates are one int8 kernel level's measured rates, in units per ns.
type int8Rates struct {
	// Int8 is the int8 tap GEMM in padded multiply-adds, quantize excluded.
	Int8 float64
	// Quantize is the pass that turns one fp32 activation into a byte.
	Quantize float64
	// GEMM is the fp32 tap GEMM in multiply-adds.
	GEMM float64
	// Winograd is the fp32 Winograd route in Equation 2 cost units at full
	// reduction depth.
	Winograd float64
}

// int8RateTable holds the rates per int8 level (matmul.Int8ISA), each next
// to the fp32 kernels of the level it runs beside: avx512vnni beside the
// avx512 fp32 kernels, avx2 beside avx2 (an AVX2-only host), portable beside
// portable. It is the static seed of the rate probe ROADMAP item 3 plans.
// amx holds the avx512vnni rates unchanged, so an AMX host partitions a
// network exactly as a VNNI one does and computes the same bits; its own
// rates wait for that probe.
//
// The rates were fitted on one lane of a 2-core AVX-512 VNNI Xeon (int8 and
// fp32 of each level side by side through the WithISA views) over the
// group-1 convolutions of squeezenet-v1.1, resnet-18, vgg-16, inception-v3
// and mobilenet-v1's stem and pointwise layers at 224² (79 signatures,
// portable: the 68 under 2e8 multiply-adds); Quantize is the quantize pass
// alone (6.0 activations/ns with AVX2, 0.16 in Go), Int8 the geometric mean
// of the rest of each int8 layer's time, GEMM and Winograd the geometric
// means of the fp32 layers' rates. The cost comparison then agrees with the
// measured winner on 74 of 79 signatures at avx512vnni (the five misses are
// Winograd layers with ic ≥ 48 that int8 loses by 2–25 %), 76 of 79 at avx2
// (misses within 10 %) and all 68 at portable; on inception-v3's twelve
// 1×7/7×1 signatures it agrees on 9 at each SIMD level, for 1×7 Winograd
// runs up to 3× the rate of 7×1, which the model prices alike.
// BenchmarkQuantVsFloatConv3x3 and BenchmarkQuantVsFloatConv1x1 in
// internal/kernels rerun the contested shapes.
var int8RateTable = map[string]int8Rates{
	"amx":        {Int8: 230, Quantize: 6.0, GEMM: 80, Winograd: 42},
	"avx512vnni": {Int8: 230, Quantize: 6.0, GEMM: 80, Winograd: 42},
	"avx2":       {Int8: 58, Quantize: 6.0, GEMM: 45, Winograd: 33},
	"portable":   {Int8: 2.0, Quantize: 0.16, GEMM: 0.87, Winograd: 0.90},
}

// winogradHalfDepth is the input channel count at which the Winograd route
// runs at half its full-depth rate: its per-position GEMM reduces over ic,
// and at small ic its transforms, not the GEMM, set its time (vgg-16's
// 3→64 conv1_1 reaches a sixth of the rate of its 64→64 conv1_2).
const winogradHalfDepth = 8

// Int8ConvSupported reports whether an int8 engine runs a convolution on the
// int8 tap GEMM: it is group 1 (the kernel packs the full [oc, ic] filter)
// and the int8 route is priced below the fp32 decision on the given int8
// level ("amx", "avx512vnni", "avx2" or "portable"; any other level keeps
// fp32).
// The price reads the per-sample input geometry only — inShape[0] is
// ignored — so a batched engine partitions as its unbatched twin does.
// Depthwise convolutions stay fp32. DecideConvs evaluates it once per
// convolution per Open and records the answer in the convolution's route;
// the int8 partition and the CPU backend read the route, not this price.
func Int8ConvSupported(a *graph.Conv2DAttrs, inShape []int, dec ConvDecision, level string) bool {
	r, ok := int8RateTable[level]
	if !ok || a.Group > 1 || len(inShape) != 4 {
		return false
	}
	ic, ih, iw := inShape[1], inShape[2], inShape[3]
	oh, ow, err := graph.ConvOutputSize(ih, iw, a)
	if err != nil || oh <= 0 || ow <= 0 {
		return false
	}
	oc, taps, pixels := float64(a.OutputCount), float64(a.KernelH*a.KernelW), float64(oh*ow)
	icPadded := float64(upDiv(ic, 4) * 4)
	int8Cost := pixels*icPadded*taps*oc/r.Int8 + icPadded*float64(ih*iw)/r.Quantize
	var fp32Cost float64
	if dec.Scheme == SchemeWinograd {
		depth := float64(ic) / float64(ic+winogradHalfDepth)
		fp32Cost = winoCostPerPixel(dec.TileH, dec.TileW, a.KernelH, a.KernelW, ic, a.OutputCount, oh, ow) * pixels / (r.Winograd * depth)
	} else {
		fp32Cost = pixels * float64(ic) * taps * oc / r.GEMM
	}
	return int8Cost < fp32Cost
}
