package core

import (
	"slices"

	"lemp/internal/vecmath"
)

// Blocked verification. Candidate generation prunes, but every surviving
// candidate still pays an exact inner product (§3.2, line 16 of Algorithm 1),
// and once thresholds are moderate that verification dominates retrieval
// time. Instead of one vecmath.Dot call per candidate, the verifier:
//
//  1. compacts the candidate list to live entries in place (tombstone
//     filtering moves out of the dot-product loop);
//  2. detects the common contiguous-ascending case — LENGTH's prefix and
//     the whole-bucket fallback produce lids 0..c-1 — and runs one DotBatch
//     panel pass directly over b.dirs with zero gathering (the candidate set
//     is literally a dense matrix–vector product there);
//  3. otherwise hands the whole strided candidate list, in generator order,
//     to vecmath.DotRows in one call. Candidates are deliberately NOT
//     sorted first: buckets are sized to stay cache-resident
//     (Options.CacheBytes), so a sort buys no locality while costing
//     O(c log c) per (query, bucket) pair — benchmarked as a net loss at
//     every r in {16, 64, 256}.
//
// Both kernels run AVX2 assembly where the CPU has it and portable Go
// elsewhere; either way every row keeps Dot's accumulation order, so the
// blocked verifier is bit-identical to the scalar one — the differential
// mutation harness (delta_test.go) asserts byte-identical retrieval
// results across it. Threshold and heap checks are applied per block by the
// callers, which read the dot products back out of s.vals.

// compactLiveCands drops tombstoned candidates from s.cand in place,
// preserving the generator's order. Delta buckets hold only live entries
// and skip the filter entirely.
func (ix *Index) compactLiveCands(b *bucket, s *scratch) {
	if b.delta || len(ix.dead) == 0 {
		return
	}
	cand := s.cand
	k := 0
	for _, lid := range cand {
		if _, gone := ix.dead[b.ids[lid]]; !gone {
			cand[k] = lid
			k++
		}
	}
	s.cand = cand[:k]
}

// screenCands runs the quantized prefilter over s.cand, between tombstone
// compaction and exact verification: the checkpoint bound (an int8
// head-prefix dot plus quant's remaining-mass Cauchy–Schwarz term) screens
// losers at a quarter of the dot work. The bound caps the scaled value the
// caller would emit, computed in the caller's own multiply order —
// (val·qlen)·lens for Above-θ, val·lens for top-k with qlen == 1 — so float
// rounding monotonicity makes the comparison sound. Candidates whose upper
// bound falls below cut (θ, or the current top-k heap floor) are dropped
// from s.cand in place without touching their f64 row; a non-finite upper
// bound compares false and conservatively survives. The whole list goes to
// quant's Filter in one call (AVX2 assembly where the CPU has it).
// Checkpoint survivors go straight to the exact kernels: finishing the
// remaining int8 dimensions for the tighter full bracket kills so few extra
// candidates (the checkpoint takes ~96% of the full bound's kills on
// spectral-decay data) that the exact f64 dot for those borderline rows is
// cheaper than the finish pass over every survivor.
//
// With approxOnly set (the Approx retrieval mode's centroid phase),
// survivors finish their int8 dot, must also pass the full bracket, and
// adopt their approximate dot into s.vals; the caller skips exact
// verification entirely. The return value reports that: true means s.vals
// is already filled and verifyDots must not run.
//
// Screening is off — returning false with s.cand untouched — when the
// bucket has no sidecar or the query does not quantize cleanly (non-finite
// coordinates, degenerate magnitudes).
func (ix *Index) screenCands(b *bucket, s *scratch, qi int32, qdir []float64, qlen, cut float64, approxOnly bool, st *Stats) bool {
	q8 := b.q8
	if q8 == nil || !s.quantQuery(qi, qdir) {
		return false
	}
	cand := s.cand
	// qlen is folded into the screen's constants (NewScreen's emit factor),
	// so the per-candidate predicate is one multiply against the row length
	// — still the caller's emit multiply order, (val·qlen)·lens, with the
	// inner factor bounded instead of computed.
	scr := q8.NewScreen(s.q8q, qlen)
	var heads []int32
	if approxOnly {
		if cap(s.vals) < len(cand) {
			s.vals = make([]float64, len(cand)+len(cand)/2+8)
		}
		if cap(s.q8heads) < len(cand) {
			s.q8heads = make([]int32, len(cand)+len(cand)/2+8)
		}
		heads = s.q8heads[:len(cand)]
	}
	k := scr.Filter(cand, b.lens, cut, heads)
	if approxOnly {
		s.vals = s.vals[:k]
		kept := k
		k = 0
		for j, lid := range cand[:kept] {
			approx, bound := q8.FinishApproxBound(s.q8q, int(lid), heads[j])
			if (approx+bound)*qlen*b.lens[lid] < cut {
				continue
			}
			s.vals[k] = approx
			cand[k] = lid
			k++
		}
		s.vals = s.vals[:k]
	}
	st.QuantScreened += int64(len(cand) - k)
	st.QuantSurvived += int64(k)
	s.cand = cand[:k]
	return approxOnly
}

// verifyDots computes s.vals[i] = q̄ᵀp̄ for every (live) candidate s.cand[i]
// with one call into the blocked list kernels, and counts block- vs
// scalar-verified candidates into st.
func verifyDots(b *bucket, qdir []float64, s *scratch, st *Stats) {
	c := len(s.cand)
	if cap(s.vals) < c {
		s.vals = make([]float64, c+c/2+8)
	}
	s.vals = s.vals[:c]
	if c == 0 {
		return
	}
	// Contiguous ascending run (unique lids): one dense panel product.
	if int(s.cand[c-1])-int(s.cand[0]) == c-1 && slices.IsSorted(s.cand) {
		lo := int(s.cand[0])
		vecmath.DotBatch(qdir, b.dirs[lo*b.r:(lo+c)*b.r], s.vals)
		st.BlockVerified += int64(c)
		return
	}
	blocked := vecmath.DotRows(qdir, b.dirs, s.cand, s.vals)
	st.BlockVerified += int64(blocked)
	st.ScalarVerified += int64(c - blocked)
}
