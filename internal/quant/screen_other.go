//go:build !amd64

package quant

// filterAsm reports that off amd64 the portable screen runs.
func (s *Screen) filterAsm(lids []int32, lens []float64, cut float64, heads []int32) (kept int, ok bool) {
	return 0, false
}
