//go:build !amd64

package vecmath

// dotRowsAsm reports that off amd64 the portable kernels run.
func dotRowsAsm(q, rows []float64, lids []int32, out []float64) bool { return false }
