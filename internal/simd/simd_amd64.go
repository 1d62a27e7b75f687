package simd

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of extended control register XCR0.
func xgetbv0() uint32

// hasAVX2 applies the detection rule of the Intel SDM (§14.3): CPUID leaf 1
// must report OSXSAVE (ECX bit 27) and AVX (ECX bit 28), XCR0 must have the
// SSE and AVX state bits (1 and 2) set, and CPUID leaf 7 must report AVX2
// (EBX bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv0()&xmmYmmState != xmmYmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
