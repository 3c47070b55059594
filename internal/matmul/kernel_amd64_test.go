package matmul

import "testing"

// TestDetectLevel pins the dispatch decision as a table over the four
// register values it is a function of.
func TestDetectLevel(t *testing.T) {
	const (
		fma, osx, avx      = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f      = 1 << 5, 1 << 16
		ymmState, zmmState = 0x06, 0xe6
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, xcr0, ebx7 uint32
		want                      level
	}{
		{"avx512 host", 0x1b, fma | osx | avx, zmmState | 1, avx2 | avx512f, levelAVX512},
		{"AVX512F but XCR0 without zmm and opmask state", 0x1b, fma | osx | avx, ymmState | 1, avx2 | avx512f, levelAVX2},
		{"AVX512F but XCR0 without opmask state", 0x1b, fma | osx | avx, 0xc6, avx2 | avx512f, levelAVX2},
		{"AVX512F but XCR0 without the upper zmm state", 0x1b, fma | osx | avx, 0x66, avx2 | avx512f, levelAVX2},
		{"avx2 host", 0x16, fma | osx | avx, ymmState | 1, avx2, levelAVX2},
		{"AVX512F without AVX2", 0x1b, fma | osx | avx, zmmState | 1, avx512f, levelPortable},
		{"OSXSAVE clear", 0x1b, fma | avx, 0, avx2 | avx512f, levelPortable},
		{"AVX clear", 0x1b, fma | osx, zmmState | 1, avx2 | avx512f, levelPortable},
		{"AVX2 and AVX512F without FMA", 0x1b, osx | avx, zmmState | 1, avx2 | avx512f, levelPortable},
		{"XCR0 without ymm state", 0x1b, fma | osx | avx, 0x03, avx2 | avx512f, levelPortable},
		{"max leaf below 7", 6, fma | osx | avx, zmmState | 1, avx2 | avx512f, levelPortable},
		{"no AVX2", 0x0d, fma | osx | avx, ymmState | 1, 0, levelPortable},
	} {
		if got := detectLevel(c.maxLeaf, c.ecx1, c.xcr0, c.ebx7); got != c.want {
			t.Errorf("%s: detectLevel(%#x, %#x, %#x, %#x) = %s, want %s", c.name, c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, levelNames[got], levelNames[c.want])
		}
	}
	if got := probeLevel(); got != haveSIMD {
		t.Errorf("probeLevel() = %s now, %s at init", levelNames[got], levelNames[haveSIMD])
	}
	t.Logf("this host: %s", KernelISA())
}
