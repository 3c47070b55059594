package matmul

import "testing"

// TestDetectLevel pins the dispatch decision as a table over the six
// register values and the AMX grant it is a function of, for the fp32 and
// the int8 ladder.
func TestDetectLevel(t *testing.T) {
	const (
		fma, osx, avx      = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f      = 1 << 5, 1 << 16
		vnni               = 1 << 11
		ymmState, zmmState = 0x06, 0xe6
		tile, amx8         = 1 << 24, 1 << 25
		tileState          = 1<<17 | 1<<18
	)
	for _, c := range []struct {
		name                                  string
		maxLeaf, ecx1, xcr0, ebx7, ecx7, edx7 uint32
		granted                               bool
		f32, i8                               level
	}{
		{"amx host", 0x1b, fma | osx | avx, zmmState | tileState | 1, avx2 | avx512f, vnni, tile | amx8, true, levelAVX512, levelAMX},
		{"AMX-TILE without AMX-INT8", 0x1b, fma | osx | avx, zmmState | tileState | 1, avx2 | avx512f, vnni, tile, true, levelAVX512, levelVNNI},
		{"AMX-INT8 without AMX-TILE", 0x1b, fma | osx | avx, zmmState | tileState | 1, avx2 | avx512f, vnni, amx8, true, levelAVX512, levelVNNI},
		{"AMX but XCR0 without the tile state", 0x1b, fma | osx | avx, zmmState | 1, avx2 | avx512f, vnni, tile | amx8, true, levelAVX512, levelVNNI},
		{"AMX but XCR0 without the tile data", 0x1b, fma | osx | avx, zmmState | 1<<17 | 1, avx2 | avx512f, vnni, tile | amx8, true, levelAVX512, levelVNNI},
		{"AMX but XCR0 without the tile configuration", 0x1b, fma | osx | avx, zmmState | 1<<18 | 1, avx2 | avx512f, vnni, tile | amx8, true, levelAVX512, levelVNNI},
		{"AMX and XCR0 but the tile data refused", 0x1b, fma | osx | avx, zmmState | tileState | 1, avx2 | avx512f, vnni, tile | amx8, false, levelAVX512, levelVNNI},
		{"AMX without AVX-512 VNNI", 0x1b, fma | osx | avx, zmmState | tileState | 1, avx2 | avx512f, 0, tile | amx8, true, levelAVX512, levelAVX2},
		{"AMX without the zmm state", 0x1b, fma | osx | avx, ymmState | tileState | 1, avx2 | avx512f, vnni, tile | amx8, true, levelAVX2, levelAVX2},
		{"avx512 vnni host", 0x1b, fma | osx | avx, zmmState | 1, avx2 | avx512f, vnni, 0, false, levelAVX512, levelVNNI},
		{"AVX512F without VNNI", 0x1b, fma | osx | avx, zmmState | 1, avx2 | avx512f, 0, 0, false, levelAVX512, levelAVX2},
		{"VNNI but XCR0 without zmm and opmask state", 0x1b, fma | osx | avx, ymmState | 1, avx2 | avx512f, vnni, 0, false, levelAVX2, levelAVX2},
		{"AVX512F but XCR0 without opmask state", 0x1b, fma | osx | avx, 0xc6, avx2 | avx512f, vnni, 0, false, levelAVX2, levelAVX2},
		{"AVX512F but XCR0 without the upper zmm state", 0x1b, fma | osx | avx, 0x66, avx2 | avx512f, vnni, 0, false, levelAVX2, levelAVX2},
		{"VNNI without AVX512F", 0x1b, fma | osx | avx, zmmState | 1, avx2, vnni, 0, false, levelAVX2, levelAVX2},
		{"avx2 host", 0x16, fma | osx | avx, ymmState | 1, avx2, 0, 0, false, levelAVX2, levelAVX2},
		{"AVX512F without AVX2", 0x1b, fma | osx | avx, zmmState | 1, avx512f, vnni, 0, false, levelPortable, levelPortable},
		{"OSXSAVE clear", 0x1b, fma | avx, 0, avx2 | avx512f, vnni, 0, false, levelPortable, levelPortable},
		{"AVX clear", 0x1b, fma | osx, zmmState | 1, avx2 | avx512f, vnni, 0, false, levelPortable, levelPortable},
		{"AVX2 and AVX512F without FMA", 0x1b, osx | avx, zmmState | 1, avx2 | avx512f, vnni, 0, false, levelPortable, levelPortable},
		{"XCR0 without ymm state", 0x1b, fma | osx | avx, 0x03, avx2 | avx512f, vnni, 0, false, levelPortable, levelPortable},
		{"max leaf below 7", 6, fma | osx | avx, zmmState | 1, avx2 | avx512f, vnni, 0, false, levelPortable, levelPortable},
		{"no AVX2", 0x0d, fma | osx | avx, ymmState | 1, 0, 0, 0, false, levelPortable, levelPortable},
	} {
		if f32, i8 := detectLevel(c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, c.ecx7, c.edx7, c.granted); f32 != c.f32 || i8 != c.i8 {
			t.Errorf("%s: detectLevel(%#x, %#x, %#x, %#x, %#x, %#x, %v) = %s, int8 %s; want %s, int8 %s", c.name, c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, c.ecx7, c.edx7, c.granted,
				levelNames[f32], levelNames[i8], levelNames[c.f32], levelNames[c.i8])
		}
	}
	if f32, i8 := probeLevel(); f32 != haveSIMD || i8 != haveInt8 {
		t.Errorf("probeLevel() = %s, int8 %s now; %s, int8 %s at init", levelNames[f32], levelNames[i8], levelNames[haveSIMD], levelNames[haveInt8])
	}
	t.Logf("this host: %s, int8 %s", KernelISA(), Int8ISA())
}
