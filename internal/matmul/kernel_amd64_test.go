package matmul

import "testing"

// TestDetectLevel pins the dispatch decision as a table over the five
// register values it is a function of, for the fp32 and the int8 ladder.
func TestDetectLevel(t *testing.T) {
	const (
		fma, osx, avx      = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f      = 1 << 5, 1 << 16
		vnni               = 1 << 11
		ymmState, zmmState = 0x06, 0xe6
	)
	for _, c := range []struct {
		name                            string
		maxLeaf, ecx1, xcr0, ebx7, ecx7 uint32
		f32, i8                         level
	}{
		{"avx512 vnni host", 0x1b, fma | osx | avx, zmmState | 1, avx2 | avx512f, vnni, levelAVX512, levelVNNI},
		{"AVX512F without VNNI", 0x1b, fma | osx | avx, zmmState | 1, avx2 | avx512f, 0, levelAVX512, levelAVX2},
		{"VNNI but XCR0 without zmm and opmask state", 0x1b, fma | osx | avx, ymmState | 1, avx2 | avx512f, vnni, levelAVX2, levelAVX2},
		{"AVX512F but XCR0 without opmask state", 0x1b, fma | osx | avx, 0xc6, avx2 | avx512f, vnni, levelAVX2, levelAVX2},
		{"AVX512F but XCR0 without the upper zmm state", 0x1b, fma | osx | avx, 0x66, avx2 | avx512f, vnni, levelAVX2, levelAVX2},
		{"VNNI without AVX512F", 0x1b, fma | osx | avx, zmmState | 1, avx2, vnni, levelAVX2, levelAVX2},
		{"avx2 host", 0x16, fma | osx | avx, ymmState | 1, avx2, 0, levelAVX2, levelAVX2},
		{"AVX512F without AVX2", 0x1b, fma | osx | avx, zmmState | 1, avx512f, vnni, levelPortable, levelPortable},
		{"OSXSAVE clear", 0x1b, fma | avx, 0, avx2 | avx512f, vnni, levelPortable, levelPortable},
		{"AVX clear", 0x1b, fma | osx, zmmState | 1, avx2 | avx512f, vnni, levelPortable, levelPortable},
		{"AVX2 and AVX512F without FMA", 0x1b, osx | avx, zmmState | 1, avx2 | avx512f, vnni, levelPortable, levelPortable},
		{"XCR0 without ymm state", 0x1b, fma | osx | avx, 0x03, avx2 | avx512f, vnni, levelPortable, levelPortable},
		{"max leaf below 7", 6, fma | osx | avx, zmmState | 1, avx2 | avx512f, vnni, levelPortable, levelPortable},
		{"no AVX2", 0x0d, fma | osx | avx, ymmState | 1, 0, 0, levelPortable, levelPortable},
	} {
		if f32, i8 := detectLevel(c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, c.ecx7); f32 != c.f32 || i8 != c.i8 {
			t.Errorf("%s: detectLevel(%#x, %#x, %#x, %#x, %#x) = %s, int8 %s; want %s, int8 %s", c.name, c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, c.ecx7,
				levelNames[f32], levelNames[i8], levelNames[c.f32], levelNames[c.i8])
		}
	}
	if f32, i8 := probeLevel(); f32 != haveSIMD || i8 != haveInt8 {
		t.Errorf("probeLevel() = %s, int8 %s now; %s, int8 %s at init", levelNames[f32], levelNames[i8], levelNames[haveSIMD], levelNames[haveInt8])
	}
	t.Logf("this host: %s, int8 %s", KernelISA(), Int8ISA())
}
