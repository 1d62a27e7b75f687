package vecmath

import "lemp/internal/simd"

// dotRowsAVX2 is dotRows in assembly (kernels_amd64.s), with a non-empty
// lids selecting the strided layout. The caller checks every row's bounds.
//
//go:noescape
func dotRowsAVX2(q, rows []float64, lids []int32, out []float64)

// dotRowsAsm runs dotRowsAVX2 when the CPU has AVX2 and reports whether
// it did.
func dotRowsAsm(q, rows []float64, lids []int32, out []float64) bool {
	if !simd.AVX2 {
		return false
	}
	dotRowsAVX2(q, rows, lids, out)
	return true
}
