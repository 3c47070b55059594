package kernels

import "mnn/internal/matmul"

// depthwise3x3 is the AVX2 depthwise interior kernel (depthwise_amd64.s):
// one channel pack, a rectangle of `rows` × 2·`pairs` output pixels whose
// 3×3 windows lie wholly inside the source, two pixels per ymm register.
//
//go:noescape
func depthwise3x3(dst, src *float32, rows, pairs, dstRow, srcRow, srcStep, stride int, w, bias *float32, lo, hi float32)

// depthwiseRuns is the AVX depthwise kernel for everything outside that
// rectangle (depthwise_amd64.s): one channel pack, nruns runs of adjacent
// output pixels whose sources are srcStep floats apart, each pixel the bias
// plus the products of its run's taps in list order, clamped to [lo, hi];
// see dwRun for the run and tap records.
//
//go:noescape
func depthwiseRuns(dst, src *float32, runs *dwRun, nruns int, taps *matmul.Tap, srcStep int, w, bias *float32, lo, hi float32)

// linCombNC4 is the AVX linear-combination kernel behind the Winograd
// transforms (lincomb_amd64.s); see (*linComb).apply for what it computes.
// bias may be nil.
//
//go:noescape
func linCombNC4(dst *float32, dstRow, dstChunk, dstSplit int, src *float32, srcRow, srcChunk, srcSplit, chunks, rows int, cnt, idx *int, coef *float32, lanes int, bias *float32, lo, hi float32)

// quantizeNC4 is the AVX2 activation quantizer (quantize_amd64.s): 32·blocks
// floats to bytes, each by quantizeAct with the clamp of its lane.
//
//go:noescape
func quantizeNC4(dst *uint8, src *float32, blocks int, inv float32, sign uint32, lo, hi *float32)

// maxAbs8 is the AVX max-abs scan (quantize_amd64.s) over 8·blocks floats,
// the lanes i%8 whose mask is 0 read as +0, NaN passed over.
//
//go:noescape
func maxAbs8(src *float32, blocks int, mask *[8]uint32) float32

// poolMaxRowNC4 and poolAvgRowNC4 are the AVX pooling kernels
// (pool_amd64.s): poolMax and poolAvg of n output pixels of one channel
// pack, 16 bytes apart at dst, whose non-empty rows × cols windows start
// stepBytes apart at src.
//
//go:noescape
func poolMaxRowNC4(dst, src *float32, n, rows, cols, rowBytes, stepBytes int)

//go:noescape
func poolAvgRowNC4(dst, src *float32, n, rows, cols, rowBytes, stepBytes int, div float64)

// expPS and geluPS are the AVX2 twins of expf32 and geluf32 (exp_amd64.s)
// over 8·blocks floats, blocks ≥ 1; dst may be src.
//
//go:noescape
func expPS(dst, src *float32, blocks int)

//go:noescape
func geluPS(dst, src *float32, blocks int)

// dotCols8 is the AVX kernel behind the attention GEMMs (exp_amd64.s): 8·blocks
// columns of dotCols, k ≥ 1, blocks ≥ 1.
//
//go:noescape
func dotCols8(dst, a, b *float32, k, ldb, blocks int, scale float32)
