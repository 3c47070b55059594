package kernels

import "mnn/internal/graph"

// Workspace sizing helpers: the pre-inference planner (Figure 3) asks for
// every kernel's transient-buffer requirement before the arena is laid out,
// from shapes alone — no kernel needs to be built to answer. Each formula
// must match what the corresponding Run carves, so the planner-provided
// slice always suffices and the hot path never falls back to the allocator.

// Im2colWorkspaceFloats is the im2col+GEMM convolution's requirement for a
// batch element: the patch matrix [oh·ow, (ic/g)·kh·kw] plus the product
// [oh·ow, oc/g].
func Im2colWorkspaceFloats(a *graph.Conv2DAttrs, ic, oc, oh, ow int) int {
	group := a.Group
	if group <= 0 {
		group = 1
	}
	icg := ic / group
	ocg := oc / group
	return oh*ow*icg*a.KernelH*a.KernelW + oh*ow*ocg
}

// WinogradWorkspaceFloats is the F(nh×nw) Winograd convolution's
// requirement over `lanes` worker lanes. It mirrors
// (*WinogradConv).WorkspaceSize without building the kernel: per lane the
// gathered/transformed tile block srcT [m²·U·ic] and dstT [m²·U·oc] plus
// the two gather tiles and the transform scratch.
func WinogradWorkspaceFloats(a *graph.Conv2DAttrs, nh, nw, ic, oc, lanes int) int {
	if lanes < 1 {
		lanes = 1
	}
	kh, kw := a.KernelH, a.KernelW
	if kh == 1 {
		nh = 1
	}
	if kw == 1 {
		nw = 1
	}
	mh, mw := nh+kh-1, nw+kw-1
	mm := mh * mw
	u := DefaultTileBlock
	return (mm*u*ic + mm*u*oc + 3*mm) * lanes
}
