package quant

import "lemp/internal/simd"

// screenAVX2 is Filter in assembly (screen_amd64.s). The caller checks
// every lid's bounds and the length of heads.
//
//go:noescape
func screenAVX2(lids []int32, codes []int8, r int, q []int8, screen, lens []float64, qs, qsqtn, resid, cut float64, heads []int32) int

// filterAsm runs screenAVX2 when the CPU has AVX2; ok reports whether it
// did.
func (s *Screen) filterAsm(lids []int32, lens []float64, cut float64, heads []int32) (kept int, ok bool) {
	if !simd.AVX2 {
		return 0, false
	}
	qr := s.qr
	return screenAVX2(lids, qr.Codes, qr.r, s.codes, qr.screen, lens, s.qs, s.qsqtn, s.resid, cut, heads), true
}
