// Package simdtest runs tests against every kernel family the CPU offers,
// in one process: the assembly kernels internal/simd selected at start-up
// and the portable Go kernels they must match bit for bit.
package simdtest

import (
	"testing"

	"lemp/internal/simd"
)

// Each runs fn as one subtest per kernel family this CPU can run: "avx2"
// when simd.AVX2 is set, then "generic" with simd.AVX2 cleared. Tests
// using it must not run in parallel with tests that retrieve.
func Each(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	if simd.AVX2 {
		t.Run("avx2", fn)
	}
	Portable(func() { t.Run("generic", fn) })
}

// Portable runs fn with simd.AVX2 cleared, so every kernel takes its
// portable Go path, and restores the probed value afterwards.
func Portable(fn func()) {
	old := simd.AVX2
	simd.AVX2 = false
	defer func() { simd.AVX2 = old }()
	fn()
}
