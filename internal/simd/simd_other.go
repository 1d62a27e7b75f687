//go:build !amd64

package simd

// hasAVX2 is false off amd64: the kernels run their portable Go code.
func hasAVX2() bool { return false }
