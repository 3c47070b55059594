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

// quantizePixelsNC4 is the AVX-512 quantizer into a pixel-major image
// (quantize_amd64.s): rows × pixels pixels, pixels ≥ 4, of packs ≥ 4
// channel packs, each float by quantizeAct clamped to [lo, hi], pixel x of
// row r at dst + r·dstRow + x·dstPix, its packs 4 bytes apart.
//
//go:noescape
func quantizePixelsNC4(dst *uint8, dstPix, dstRow int, src *float32, srcPack, srcRow, packs, rows, pixels int, inv float32, sign uint32, lo, hi float32)

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

// poolMax3x3s2NC4 is the AVX-512 3×3 stride-2 max pool (pool_amd64.s):
// poolMax of each of the oh × ow windows of one channel pack, all inside its
// rows of w pixels, into oh rows of ow pixels at dst.
//
//go:noescape
func poolMax3x3s2NC4(dst, src *float32, oh, ow, w int)

// expPS and geluPS are the AVX2 twins of expf32 and geluf32 (exp_amd64.s)
// over 8·blocks floats, blocks ≥ 1; dst may be src. expPS runs in the tests
// alone: it holds EXP8, which softmaxRows8 runs on x − max ≤ 0 only, to
// expf32 on every float32 bit pattern.
//
//go:noescape
func expPS(dst, src *float32, blocks int)

//go:noescape
func geluPS(dst, src *float32, blocks int)

// addPS is the AVX sum behind EltSum and a fused residual (exp_amd64.s):
// dst[i] += src[i] over 8·blocks floats, blocks ≥ 1, with src as the first
// operand of each add when srcFirst (see addInto).
//
//go:noescape
func addPS(dst, src *float32, blocks int, srcFirst bool)

// attentionRows8 is the AVX2 twin of AttentionOp's portable rows
// (exp_amd64.s): one (batch, head) pair, la ≥ 1 query rows against lb ≥ 1
// keys, heads dh ≥ 1 wide, rows ld floats apart, on ws of 8·(dh + lb)
// floats.
//
//go:noescape
func attentionRows8(dst, q, k, v, ws *float32, la, lb, dh, ld int, qkScale, avScale float32)

// softmaxRows8 and layerNormRows8 are the AVX2 twins of softmaxRows and
// layerNormRows (exp_amd64.s) over rows ≥ 1 rows of d1 ≥ 1 floats, eight
// at a time, a row per lane; dst may be src.
//
//go:noescape
func softmaxRows8(dst, src *float32, d1, rows int)

//go:noescape
func layerNormRows8(dst, src *float32, d1, rows int, gamma, beta *float32, eps float32)
