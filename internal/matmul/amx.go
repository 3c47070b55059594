package matmul

import "unsafe"

// The amx int8 level: Intel AMX tiles over the VNNI weight layout. A tile
// instruction (TDPBUSD for unsigned activations, TDPBSSD for signed ones)
// adds a 16×64-byte A tile times a 16-row B tile — one channel quad per row,
// 16 columns × 4 bytes, exactly PackedBInt8's VNNI quad — into a 16×16
// int32 C tile, wrapping as VPDPBUSD does. mulAMXInt8 holds a block of 32
// pixels × 32 columns in tmm0–3 (pixels 0–15 and 16–31 in the A tiles tmm4
// and tmm5, the two panels of a pair in the B tiles tmm6 and tmm7), so the
// sums are the VNNI kernels' exact int32 sums and a C row — one pixel × 16
// columns — goes through the VNNI kernels' requantizing epilogue element for
// element. No tile state outlives a call: each loads its configuration,
// walks its blocks and releases the tiles.

// AMXBlock is the pixels of one amx block, two A tiles of 16 rows. A run
// shorter than a block stays on the VNNI kernels.
const AMXBlock = 32

// amxChunk is the bytes of a tile row, the reduction depth of one tile
// instruction: 16 channel quads.
const amxChunk = 64

// HaveAMX reports whether this host runs the amx int8 kernels.
func HaveAMX() bool { return haveInt8 == levelAMX }

// AMX reports whether pb runs the amx kernels: MulGridNC4Into takes it.
func (pb *PackedBInt8) AMX() bool { return pb.simd == levelAMX }

// Grid is a stride-1, undilated convolution over a pixel-major byte image
// with its zero border in place: pixel y·Width + x holds its Pix channel
// bytes (the channels rounded up to whole quads) next to each other, and
// kernel row ky of grid pixel g reads the KW·Pix bytes from pixel
// g + ky·Width on in one piece — the segment of the packed weight. Output
// row oy, column ox is grid pixel oy·Width + ox; the Width − OW columns
// from OW on are computed and not stored, so the grid of OH output rows is
// (OH−1)·Width + OW pixels.
type Grid struct {
	Pix, Width, OW, KH, KW, Pixels int
}

// Blocks is the number of AMXBlock-pixel blocks that cover the grid, the
// last one ending on its last pixel.
func (g *Grid) Blocks() int { return (g.Pixels + AMXBlock - 1) / AMXBlock }

// ImageBytes is the bytes of the image the grid reads: its rows of Width
// pixels down to the last kernel row of the last output row, and the chunk
// of slack a segment's last tile row reads past its end, always against
// zero weight rows.
func (g *Grid) ImageBytes() int {
	return ((g.Pixels-1)/g.Width+g.KH)*g.Width*g.Pix + amxChunk
}

// MulGridNC4Into is the amx level's quantized convolution: blocks b0 ≤ b <
// b1 of the grid over img, requantized into the NC4HW4 destination as
// MulTapsNC4Into stores — for every stored grid pixel q at output pixel p
// and o < N
//
//	dst[(o/4)·dstPack + p·4 + o%4] = rq(Σ_ky Σ_i img[(q + ky·Width)·Pix + i]·B[ky·KW·Pix + i][o])
//
// with the sum exact in wrapping int32, bit for bit what MulTapsNC4Into
// gives the same pixel with its in-image taps. pb must be the weight of the
// grid's kernel packed at amx (PackWeightInt8 with cp = Pix), and the grid
// at least one block.
func (pb *PackedBInt8) MulGridNC4Into(dst []float32, dstPack int, img []uint8, g *Grid, b0, b1 int, unsigned bool, rq *Requant) {
	if b0 >= b1 {
		return
	}
	last := (g.Pixels-1)/g.Width*g.OW + min((g.Pixels-1)%g.Width, g.OW-1) // the last stored output pixel
	n4, cols := (pb.N+3)/4, (pb.N+PanelWidthInt8-1)/PanelWidthInt8*PanelWidthInt8
	switch {
	case pb.simd != levelAMX || g.KW*g.Pix != pb.seg || g.KH*pb.seg != pb.K || g.Pix%4 != 0:
		panic("matmul: MulGridNC4Into needs the grid's weight packed at amx")
	case g.Pixels < AMXBlock || g.OW < 1 || g.OW+g.KW-1 > g.Width || b0 < 0 || b1 > g.Blocks() || len(img) < g.ImageBytes() ||
		len(dst) < (n4-1)*dstPack+(last+1)*4 || len(rq.Scale) < cols || len(rq.Bias) < cols:
		panic("matmul: buffer too small for declared dimensions")
	}
	var tmp [2 * AMXBlock * 2 * PanelWidthInt8]int32 // two blocks' int32 sums, row by row, on their way to the epilogue
	for j0 := 0; j0 < pb.N; j0 += 2 * PanelWidthInt8 {
		packs := (min(2*PanelWidthInt8, pb.N-j0) + 3) / 4
		mulAMXInt8(unsafe.Pointer(&dst[j0/4*dstPack]), dstPack, packs, &img[0], g.Pix, g.Width*g.Pix, g.KH, pb.segRows/amxChunk,
			&pb.w8[j0/PanelWidthInt8*pb.kq*quadLen], pb.kq*quadLen, b0*AMXBlock, b1-b0, g.Pixels, g.Width, g.OW,
			&rq.Scale[j0], &rq.Bias[j0], rq.Lo, rq.Hi, unsigned, &tmp[0])
	}
}

// mulRowsAMX is MulRows over the whole panel pairs at amx: the rows are a
// grid of one kernel row, K bytes a pixel, every pixel stored, and the
// kernel stores its C tiles as they are.
func (pb *PackedBInt8) mulRowsAMX(dst []int32, a []uint8, m int, unsigned bool) {
	blocks := (m + AMXBlock - 1) / AMXBlock
	for j0 := 0; j0+2*PanelWidthInt8 <= pb.N; j0 += 2 * PanelWidthInt8 {
		mulAMXInt8(unsafe.Pointer(&dst[j0]), pb.N, 0, &a[0], pb.K, 0, 1, pb.K/amxChunk,
			&pb.w8[j0/PanelWidthInt8*pb.kq*quadLen], pb.kq*quadLen, 0, blocks, m, m, m, nil, nil, 0, 0, unsigned, nil)
	}
}
