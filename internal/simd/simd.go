// Package simd probes the CPU once, at start-up, for the assembly kernels
// in internal/vecmath and internal/quant; without AVX2 they run their
// portable Go code, which is also the oracle they are tested against.
package simd

// AVX2 reports whether the AVX2 kernels may run: the CPU has AVX and AVX2
// and the OS saves YMM state. Kernels read it once per call. Only tests
// write it, to run the portable path in the same process.
var AVX2 = hasAVX2()

// Name is the kernel family in use, "avx2" or "generic".
func Name() string {
	if AVX2 {
		return "avx2"
	}
	return "generic"
}
