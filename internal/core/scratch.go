package core

import (
	"lemp/internal/l2ap"
	"lemp/internal/quant"
)

// scratch holds all per-worker mutable state so the retrieval phase does no
// allocation per (query, bucket) pair and workers never share memory.
//
// The CP arrays (cp, cpdot, cpsq) use the appendix's no-clear trick: the
// first scanned list *sets* entries, later lists accumulate, and the final
// filter re-reads only the first list's scan range — entries outside it are
// never read, so stale values are harmless and nothing is ever cleared.
type scratch struct {
	cp    []int32   // COORD counters
	cpdot []float64 // INCR partial inner products q̄_Fᵀp̄_F
	cpsq  []float64 // INCR partial squared norms ‖p̄_F‖²

	taSeen []int32      // bucket-TA seen stamps (its own array: no collisions)
	taHeap []taFrontier // bucket-TA frontier heap storage, reused per call

	cand []int32   // candidate local ids of the current (query, bucket) pair
	vals []float64 // blocked-verification dot products, parallel to cand

	// panel is the gathered row-panel of the blocked re-rank path
	// (RowTopKApprox): candidate raw vectors copied contiguously so one
	// DotBatch pass verifies them. Reused across queries and pooled with
	// the scratch.
	panel []float64

	focus      []int32 // focus coordinates, by decreasing |q̄_f|
	focusAbs   []float64
	rangeStart []int
	rangeEnd   []int

	taMark int32 // current TA stamp

	l2 *l2ap.Scratch

	sigQuery int32  // query (sorted index) whose BLSH signature is cached
	sig      uint64 // cached query signature

	q8codes []int8      // quantized-query code buffer, len r
	q8q     quant.Query // cached quantized query (codes alias q8codes)
	q8qi    int32       // query (sorted index) the cache holds, -1 when empty
	q8ok    bool        // whether that query quantized cleanly
	q8heads []int32     // screen head dots of the kept candidates (Approx mode)

	work int64 // deterministic cost counter for TuneByCost

	// Sizing the scratch was built for, checked when a pooled scratch is
	// handed to a call: an index whose bucket layout grew past it discards
	// it instead of reusing undersized arrays.
	maxBucket int
	r         int
}

// taFrontier is one active sorted list of the bucket-TA scan: its current
// position, scan direction, and frontier contribution q̄_f·p̄_f.
type taFrontier struct {
	contrib float64
	f       int32
	pos     int32
	dir     int32 // +1 top-down, -1 bottom-up
}

func newScratch(maxBucket, r int) *scratch {
	return &scratch{
		cp:         make([]int32, maxBucket),
		cpdot:      make([]float64, maxBucket),
		cpsq:       make([]float64, maxBucket),
		taSeen:     make([]int32, maxBucket),
		focus:      make([]int32, 0, r),
		focusAbs:   make([]float64, 0, r),
		rangeStart: make([]int, r),
		rangeEnd:   make([]int, r),
		l2:         l2ap.NewScratch(maxBucket, r),
		sigQuery:   -1,
		q8codes:    make([]int8, r),
		q8qi:       -1,
		maxBucket:  maxBucket,
		r:          r,
	}
}

// getScratch hands out a pooled per-worker scratch, falling back to a fresh
// allocation when the pool is empty or the index's bucket layout outgrew the
// pooled sizing (after delta rebuilds). Pooling keeps steady-state serving
// load allocation-free: repeated retrieval calls on one index stop paying
// the O(maxBucket) scratch setup per call.
func (ix *Index) getScratch() *scratch {
	if v := ix.scratchPool.Get(); v != nil {
		s := v.(*scratch)
		if s.maxBucket >= ix.maxBucket && s.r == ix.r {
			// Per-call caches must not leak across calls: the BLSH
			// signature and the quantized query are keyed by a query index
			// whose meaning is call-local, and the cost counter restarts
			// per call.
			s.sigQuery = -1
			s.q8qi = -1
			s.work = 0
			return s
		}
	}
	return newScratch(ix.maxBucket, ix.r)
}

// putScratch returns a scratch to the pool once its worker is done.
func (ix *Index) putScratch(s *scratch) { ix.scratchPool.Put(s) }

// quantQuery returns whether the quantized form of query qi (sorted index,
// direction qdir) is usable for screening, quantizing it into the scratch's
// code buffer on first use — the same keyed per-call cache as the BLSH
// signature, so a query crossing many buckets quantizes once.
func (s *scratch) quantQuery(qi int32, qdir []float64) bool {
	if s.q8qi != qi {
		s.q8qi = qi
		s.q8q, s.q8ok = quant.QuantizeQuery(s.q8codes, qdir)
	}
	return s.q8ok
}

// selectFocus fills s.focus with the φ coordinates of q̄ having the largest
// absolute values (§4.2: large coordinates give the smallest feasible
// regions), by insertion into a small ordered buffer.
func (s *scratch) selectFocus(qdir []float64, phi int) {
	s.focus = s.focus[:0]
	s.focusAbs = s.focusAbs[:0]
	for f, v := range qdir {
		a := v
		if a < 0 {
			a = -a
		}
		if len(s.focus) < phi {
			s.focus = append(s.focus, int32(f))
			s.focusAbs = append(s.focusAbs, a)
		} else if a <= s.focusAbs[len(s.focusAbs)-1] {
			continue
		} else {
			s.focus[len(s.focus)-1] = int32(f)
			s.focusAbs[len(s.focusAbs)-1] = a
		}
		// Bubble the new entry to its rank (φ ≤ 5: cheap).
		for i := len(s.focus) - 1; i > 0 && s.focusAbs[i] > s.focusAbs[i-1]; i-- {
			s.focusAbs[i], s.focusAbs[i-1] = s.focusAbs[i-1], s.focusAbs[i]
			s.focus[i], s.focus[i-1] = s.focus[i-1], s.focus[i]
		}
	}
}
