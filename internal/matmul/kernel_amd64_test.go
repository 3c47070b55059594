package matmul

import "testing"

// TestDetectLevel pins the dispatch decision as a table over the four
// register values it is a function of.
func TestDetectLevel(t *testing.T) {
	const (
		osx, avx           = 1 << 27, 1 << 28
		avx2, avx512f      = 1 << 5, 1 << 16
		ymmState, zmmState = 0x06, 0xe6
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, xcr0, ebx7 uint32
		want                      level
	}{
		{"avx512 host", 0x1b, osx | avx, zmmState | 1, avx2 | avx512f, levelAVX512},
		{"AVX512F but XCR0 without zmm and opmask state", 0x1b, osx | avx, ymmState | 1, avx2 | avx512f, levelAVX2},
		{"AVX512F but XCR0 without opmask state", 0x1b, osx | avx, 0xc6, avx2 | avx512f, levelAVX2},
		{"AVX512F but XCR0 without the upper zmm state", 0x1b, osx | avx, 0x66, avx2 | avx512f, levelAVX2},
		{"avx2 host", 0x16, osx | avx, ymmState | 1, avx2, levelAVX2},
		{"AVX512F without AVX2", 0x1b, osx | avx, zmmState | 1, avx512f, levelPortable},
		{"OSXSAVE clear", 0x1b, avx, 0, avx2 | avx512f, levelPortable},
		{"AVX clear", 0x1b, osx, zmmState | 1, avx2 | avx512f, levelPortable},
		{"XCR0 without ymm state", 0x1b, osx | avx, 0x03, avx2 | avx512f, levelPortable},
		{"max leaf below 7", 6, osx | avx, zmmState | 1, avx2 | avx512f, levelPortable},
		{"no AVX2", 0x0d, osx | avx, ymmState | 1, 0, levelPortable},
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
