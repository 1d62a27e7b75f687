package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
	"lemp/internal/topk"
)

// RowTopK retrieves, for every query vector, the k probe vectors with the
// largest inner products (Problem 2; fewer when P holds fewer than k
// vectors). Ties are broken arbitrarily. It is RowTopKCtx with a background
// context and the index's build-time options.
func (ix *Index) RowTopK(q *matrix.Matrix, k int) (retrieval.TopK, Stats, error) {
	return ix.RowTopKCtx(context.Background(), q, k, RunOptions{})
}

// RowTopKCtx is the context-aware Row-Top-k driver with per-call execution
// overrides.
//
// Per §4.5, each query runs Above-θ′ bucket by bucket in decreasing-length
// order with a running lower bound θ′ — the current k-th best value —
// starting unseeded (θ′ = -Inf, so the first bucket, which holds the
// longest vectors, is scanned fully and plays the role of the paper's
// "k longest vectors" seed). The query's length is irrelevant to the
// ranking, so the search runs on the unit direction (‖q‖ = 1) and values
// are rescaled at the end.
//
// The context is checked at every (query, bucket) boundary, in the tuning
// sample and in every worker: a canceled call returns ctx.Err() within one
// bucket's work per worker and leaves the index fully reusable. No partial
// result is returned and no partial tuning fit is published.
func (ix *Index) RowTopKCtx(ctx context.Context, q *matrix.Matrix, k int, ro RunOptions) (retrieval.TopK, Stats, error) {
	if q.R() != ix.r {
		return nil, Stats{}, fmt.Errorf("core: query dimension %d does not match index dimension %d", q.R(), ix.r)
	}
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	opts, err := ix.effOptions(ro)
	if err != nil {
		return nil, Stats{}, err
	}
	if ro.Floors != nil {
		if err := validateFloors(ro.Floors, q.N()); err != nil {
			return nil, Stats{}, err
		}
	}
	c := newCall(ctx, opts, ro.Cache)
	c.approx = ro.screenApprox
	if ro.Floors != nil {
		c.floors, c.slack, c.head = ro.Floors, ix.floorSlack(), ix.seedHead(k)
	}
	st := Stats{Queries: q.N(), Buckets: len(ix.scan), PrepTime: ix.prepTime}
	out := make(retrieval.TopK, q.N())
	qs := prepareQueries(q)
	tuneSpan := c.startSpan("tune")
	if err := ix.ensureTuned(c, qs, tuneTopK{k: k}, &st); err != nil {
		c.endSpan(tuneSpan)
		return nil, st, err
	}
	c.endSpan(tuneSpan)
	scanSpan := c.startSpan("scan")
	start := time.Now()
	if c.opts.Parallelism == 1 || qs.n() < 2*c.opts.Parallelism {
		s := ix.getScratch()
		ix.topkWorker(c, qs, 0, qs.n(), k, s, out, &st)
		ix.putScratch(s)
	} else {
		// Workers claim query tiles from a shared cursor instead of
		// pre-cut chunks, so a straggler tile delays only itself
		// (tiles.go); each worker keeps one pooled scratch for all the
		// tiles it answers.
		workers := c.opts.Parallelism
		stats := make([]Stats, workers)
		cursor := newTileCursor(qs.n(), workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := ix.getScratch()
				defer ix.putScratch(s)
				for {
					lo, hi, ok := cursor.claim()
					if !ok || c.canceled() {
						return
					}
					ix.topkWorker(c, qs, lo, hi, k, s, out, &stats[w])
				}
			}(w)
		}
		wg.Wait()
		addWorkerStats(&st, stats)
	}
	st.RetrievalTime = time.Since(start)
	c.endSpan(scanSpan)
	ix.countIndexedBuckets(&st)
	if c.canceled() {
		return nil, st, c.ctxErr()
	}
	return out, st, nil
}

// topkWorker answers queries [lo, hi) of the sorted query set. Each worker
// owns its scratch and heap; output rows are disjoint, so no locking. The
// call's context is polled once per (query, bucket) pair, so cancellation
// costs at most one bucket of work per worker.
func (ix *Index) topkWorker(c *call, qs *querySet, lo, hi, k int, s *scratch, out retrieval.TopK, st *Stats) {
	live := ix.LiveN()
	if live == 0 {
		return
	}
	kk := k
	if kk > live {
		kk = live
	}
	heap := topk.New(kk)
	// All rows of the range share one backing array (each row capped at
	// its own length), so a call allocates per range, not per row.
	items := make([]topk.Item, kk)
	entries := make([]retrieval.Entry, 0, (hi-lo)*kk)
	negInf := math.Inf(-1)
	for qi := lo; qi < hi; qi++ {
		origID := qs.ids[qi]
		qlen := qs.lens[qi]
		if qlen == 0 {
			if c.canceled() {
				return
			}
			row := ix.zeroQueryRow(int(origID), kk)
			out[origID] = row
			st.Results += int64(len(row))
			continue
		}
		qdir := qs.dir(qi)
		floor := negInf
		if c.floors != nil {
			floor = unitFloor(c.floors[origID], qlen, c.slack)
		}
		scan := ix.scan
		if seedable(qlen) {
			scan = scan[c.head:]
		}
		heap.Reset()
		for _, b := range scan {
			if c.canceled() {
				return
			}
			// The running bound θ′ is the heap's k-th value once the heap
			// is full, raised to the row's seeded floor (-Inf unseeded).
			theta, thetaB := floor, negInf
			bounded := floor > negInf
			if thr, ok := heap.Threshold(); ok {
				bounded = true
				if !(thr <= theta) {
					theta = thr
				}
			}
			if b.lb == 0 {
				// Zero-length probes: products are 0.
				if theta > 0 {
					st.PrunedPairs++
					break
				}
				thetaB = -1
			} else if bounded {
				thetaB = theta / b.lb
				if thetaB > 1 {
					st.PrunedPairs++
					break
				}
			}
			st.ProcessedPairs++
			alg, phi := ix.resolve(c.opts, b, thetaB)
			ix.gather(b, alg, phi, int32(qi), qdir, 1, theta, thetaB, 0, s)
			st.Candidates += int64(len(s.cand))
			s.work += int64(len(s.cand)) * int64(ix.r)
			// Blocked verification (verify.go): drop tombstones, screen
			// against the running bound when a sidecar is active (theta
			// is the seeded floor, or -Inf, until the heap fills; Push
			// drops values ≤ the heap minimum and a floor only ever drops
			// values strictly below it, so strict-< screening is
			// byte-safe), compute the block dot products,
			// then apply the heap per block result. v = (q̄ᵀp̄)·‖p‖ exactly
			// as the scalar path computed it; in Approx mode v is the
			// quantized estimate and the exact kernels are skipped.
			ix.compactLiveCands(b, s)
			if !ix.screenCands(b, s, int32(qi), qdir, 1, theta, c.approx, st) {
				verifyDots(b, qdir, s, st)
			}
			for i, lid := range s.cand {
				heap.Push(int(b.ids[lid]), s.vals[i]*b.lens[lid])
			}
		}
		first := len(entries)
		for _, it := range heap.Drain(items) {
			entries = append(entries, retrieval.Entry{Query: int(origID), Probe: it.ID, Value: it.Value * qlen})
		}
		st.Results += int64(len(entries) - first)
		out[origID] = entries[first:len(entries):len(entries)]
	}
}

// zeroQueryRow answers a zero-length query: every product is 0, so any k
// probes qualify; return the k longest live probes (ties broken by smaller
// id) for determinism. With a delta layer the per-bucket length order no
// longer implies a global order, so the buckets are merged cursor-wise.
func (ix *Index) zeroQueryRow(origID, kk int) []retrieval.Entry {
	row := make([]retrieval.Entry, 0, kk)
	cur := make([]int, len(ix.scan))
	for len(row) < kk {
		best := -1
		var bestLen float64
		var bestID int32
		for bi, b := range ix.scan {
			for cur[bi] < b.size() && ix.deadSkip(b, cur[bi]) {
				cur[bi]++
			}
			if cur[bi] >= b.size() {
				continue
			}
			l, id := b.lens[cur[bi]], b.ids[cur[bi]]
			if best == -1 || l > bestLen || (l == bestLen && id < bestID) {
				best, bestLen, bestID = bi, l, id
			}
		}
		if best == -1 {
			break
		}
		row = append(row, retrieval.Entry{Query: origID, Probe: int(bestID), Value: 0})
		cur[best]++
	}
	return row
}

// validateFloors checks per-row Row-Top-k floors (RunOptions.Floors): one
// per query row, each finite or -Inf. NaN would disable every comparison
// and +Inf would prune a row to nothing, so both are rejected.
func validateFloors(floors []float64, n int) error {
	if len(floors) != n {
		return fmt.Errorf("core: %d top-k floors for %d query rows", len(floors), n)
	}
	for i, f := range floors {
		if math.IsNaN(f) || math.IsInf(f, 1) {
			return fmt.Errorf("core: top-k floor %d is %v; floors must be finite or -Inf", i, f)
		}
	}
	return nil
}

// floorSlack is the absolute amount every seeded floor is lowered by before
// it prunes. A floor is a value computed elsewhere (another shard's seed),
// often exactly the value of an entry this scan must keep, and bucket and
// candidate bounds are evaluated in rounded arithmetic. A few ulps would
// cover the dot product itself ((r+3) ulps of ‖p‖max), but INCR, COORD
// and L2AP bound a product by square roots of differences of squared norms
// (√(1−‖q̄_F‖²), √(1−θ_b²)), and a square root turns an absolute error of
// (r+2) ulps into one of √((r+2)·ulp): a slack of a few ulps let L2AP drop
// an entry tied with the floor. The slack covers four times that root. It
// is absolute, scaled by ‖p‖max, not relative to the floor, because a
// floor can be 0 or negative. Values within it of the floor are at most
// re-verified, never dropped, so the results do not depend on it.
func (ix *Index) floorSlack() float64 {
	if len(ix.scan) == 0 {
		return 0
	}
	return 4 * math.Sqrt(float64(ix.r+2)*0x1p-53) * ix.scan[0].lb
}

// unitFloor maps a row floor θ₀, given in the scale of the returned values
// (q̄ᵀp̄·‖p‖·‖q‖), onto the unit-direction scale the scan runs in, lowered
// by slack. Rows without a usable length (zero, which answers from
// zeroQueryRow, or non-finite) stay unseeded.
func unitFloor(theta, qlen, slack float64) float64 {
	if math.IsInf(theta, -1) || !seedable(qlen) {
		return math.Inf(-1)
	}
	return theta/qlen - slack
}

// seedable reports whether a query row of length qlen takes part in
// seeding: zero-length rows answer from zeroQueryRow and non-finite ones
// have no usable direction.
func seedable(qlen float64) bool { return qlen > 0 && !math.IsInf(qlen, 1) }

// seedHeadSize is the number of live probes the seed head holds at least:
// 20·k, at least √live so the seed grows with the catalogue, and at most
// an eighth of the live probes, so the seed stays a small fixed cost next
// to the scan it prunes. On a 5000-probe shard at k = 10 that is 200.
func seedHeadSize(live, k int) int {
	h := 20 * k
	if s := int(math.Ceil(math.Sqrt(float64(live)))); s > h {
		h = s
	}
	return min(h, live/8)
}

// seedHead returns the number of leading scan buckets that form the seed
// head at top-k depth k: the fewest that hold seedHeadSize(LiveN, k) live
// probes. Tombstoned probes do not count.
func (ix *Index) seedHead(k int) int {
	want := seedHeadSize(ix.LiveN(), k)
	nb, got := 0, 0
	for nb < len(ix.scan) && got < want {
		b := ix.scan[nb]
		for lid := 0; lid < b.size(); lid++ {
			if !ix.deadSkip(b, lid) {
				got++
			}
		}
		nb++
	}
	return nb
}

// HeadTopKCtx is the seed pass of a sharded Row-Top-k (§4.5's seed, taken
// across shards): for every query row, the k largest exact products with
// the live probes of the seed head — the leading scan buckets, holding
// the longest probes. Rows are by decreasing value, with values computed
// exactly as the scan computes them (the query's unit direction, the
// blocked verify kernels, then the two length rescales), so a row's k-th
// value is the k-th largest of k real entries: it can seed
// RunOptions.Floors on any index holding part of the same catalogue, and
// the rows complete the seeded scan of this index. Zero-length and
// non-finite rows are left empty.
//
// The pass is read-only on the index: no tuning, no lazy bucket indexes,
// only the pooled scratch. Stats reports the rows and SeedProducts; the
// context is polled once per row.
func (ix *Index) HeadTopKCtx(ctx context.Context, q *matrix.Matrix, k int) (retrieval.TopK, Stats, error) {
	if q.R() != ix.r {
		return nil, Stats{}, fmt.Errorf("core: query dimension %d does not match index dimension %d", q.R(), ix.r)
	}
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	st := Stats{Queries: q.N()}
	out := make(retrieval.TopK, q.N())
	live := ix.LiveN()
	if live == 0 || q.N() == 0 {
		return out, st, nil
	}
	kk := min(k, live)
	head := ix.scan[:ix.seedHead(k)]

	c := newCall(ctx, ix.opts, nil)
	qs := prepareQueries(q)
	s := ix.getScratch()
	defer ix.putScratch(s)
	heap := topk.New(kk)
	items := make([]topk.Item, kk)
	entries := make([]retrieval.Entry, 0, q.N()*kk)
	var vst Stats
	for qi := 0; qi < qs.n(); qi++ {
		if c.canceled() {
			return nil, st, c.ctxErr()
		}
		qlen := qs.lens[qi]
		if !seedable(qlen) {
			continue
		}
		qdir := qs.dir(qi)
		heap.Reset()
		for _, b := range head {
			s.cand = s.cand[:0]
			for lid := 0; lid < b.size(); lid++ {
				s.cand = append(s.cand, int32(lid))
			}
			ix.compactLiveCands(b, s)
			verifyDots(b, qdir, s, &vst)
			for i, lid := range s.cand {
				heap.Push(int(b.ids[lid]), s.vals[i]*b.lens[lid])
			}
		}
		origID := int(qs.ids[qi])
		first := len(entries)
		for _, it := range heap.Drain(items) {
			entries = append(entries, retrieval.Entry{Query: origID, Probe: it.ID, Value: it.Value * qlen})
		}
		out[origID] = entries[first:len(entries):len(entries)]
	}
	st.SeedProducts = vst.BlockVerified + vst.ScalarVerified
	return out, st, nil
}
