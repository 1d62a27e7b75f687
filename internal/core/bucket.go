package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"lemp/internal/covertree"
	"lemp/internal/l2ap"
	"lemp/internal/lsh"
	"lemp/internal/matrix"
	"lemp/internal/quant"
	"lemp/internal/vecmath"
)

// bucket holds a group of probe vectors of similar length (§3.2, Fig. 4a):
// original column ids, lengths sorted in decreasing order, and the
// normalized directions, plus lazily built per-bucket indexes.
type bucket struct {
	r    int
	ids  []int32   // original probe column numbers, by decreasing length
	lens []float64 // vector lengths, decreasing
	dirs []float64 // normalized vectors, contiguous (size() × r)
	lb   float64   // length of the longest vector

	// Sorted-list index for COORD/INCR/TA, built lazily on first use.
	listsOnce sync.Once
	lists     *sortedLists

	// Cover tree over the bucket's raw vectors, for AlgTree.
	treeOnce sync.Once
	tree     *covertree.Tree

	// L2AP index, for AlgL2AP. Guarded by a mutex rather than a Once
	// because it must be rebuilt when a run needs a smaller index-time
	// threshold than it was built with.
	l2mu sync.Mutex
	l2   *l2ap.Index

	// BLSH signatures of the normalized vectors, for AlgBLSH.
	sigsOnce sync.Once
	sigs     []uint64

	// built is set once any lazy index above exists; atomic because Stats
	// read it while concurrent bulk panels may still be building one.
	built atomic.Bool

	// Tuned algorithm-selection parameters (§4.4).
	tuned bool
	tb    float64 // use LENGTH when θ_b(q) < tb
	phi   int     // focus-set size for COORD/INCR

	// delta marks an overlay bucket (delta.go): its entries are always
	// live, so tombstone filtering is skipped.
	delta bool

	// q8 is the int8 quantization sidecar of dirs (Options.Quantize): the
	// conservative screen that runs ahead of exact verification. nil when
	// quantized screening is off or the dimension exceeds quant.MaxDim.
	// Attached right after bucketization, before the bucket is published,
	// so it needs no synchronization.
	q8 *quant.Rows
}

func (b *bucket) size() int { return len(b.ids) }

// dir returns the normalized vector with bucket-local id lid.
func (b *bucket) dir(lid int) []float64 {
	return b.dirs[lid*b.r : (lid+1)*b.r : (lid+1)*b.r]
}

// ensureLists builds the sorted-list index on first use. A bucket restored
// from a snapshot that persisted its lists (SLST section) arrives with
// b.lists pre-populated — installed single-threaded before the index is
// published — and skips the build.
func (b *bucket) ensureLists() *sortedLists {
	b.listsOnce.Do(func() {
		if b.lists == nil {
			b.lists = buildLists(b)
		}
		b.built.Store(true)
	})
	return b.lists
}

// ensureTree builds the per-bucket cover tree over the raw (un-normalized)
// vectors on first use.
func (b *bucket) ensureTree() *covertree.Tree {
	b.treeOnce.Do(func() {
		pts := matrix.New(b.r, b.size())
		for lid := 0; lid < b.size(); lid++ {
			vecmath.Scale(pts.Vec(lid), b.dir(lid), b.lens[lid])
		}
		b.tree = covertree.Build(pts, covertree.DefaultBase)
		b.built.Store(true)
	})
	return b.tree
}

// ensureL2AP returns an L2AP index valid for query thresholds ≥ t0,
// (re)building when the existing index was built with a larger bound.
func (b *bucket) ensureL2AP(t0 float64) *l2ap.Index {
	b.l2mu.Lock()
	defer b.l2mu.Unlock()
	if b.l2 == nil || b.l2.T0() > t0 {
		b.l2 = l2ap.Build(b.dir, b.size(), b.r, t0)
		b.built.Store(true)
	}
	return b.l2
}

// ensureSigs computes the BLSH signatures of the bucket's directions.
func (b *bucket) ensureSigs(h *lsh.Hasher) []uint64 {
	b.sigsOnce.Do(func() {
		sigs := make([]uint64, b.size())
		for lid := range sigs {
			sigs[lid] = h.Signature(b.dir(lid))
		}
		b.sigs = sigs
		b.built.Store(true)
	})
	return b.sigs
}

// indexed reports whether any lazy index has been built (for Stats).
func (b *bucket) indexed() bool { return b.built.Load() }

// lengthPrefix returns the number of leading vectors with length ≥ minLen
// (the LENGTH scan boundary: lens is sorted decreasingly).
func (b *bucket) lengthPrefix(minLen float64) int {
	return sort.Search(b.size(), func(i int) bool { return b.lens[i] < minLen })
}

// bucketSpans computes the bucket boundaries of §3.2 over lengths already
// sorted in decreasing order: span [start, end) becomes one bucket. A new
// bucket starts when the length drops below shrink·l_b or the bucket would
// exceed maxSize vectors; every bucket holds at least minSize vectors and a
// too-short tail is absorbed into the last bucket. maxSize ≤ 0 means
// unlimited. Shared by bucketize and ScanCostWeights so the cost model sees
// exactly the bucketization the index would build.
func bucketSpans(sortedLens []float64, shrink float64, minSize, maxSize int) [][2]int {
	n := len(sortedLens)
	var spans [][2]int
	for start := 0; start < n; {
		lb := sortedLens[start]
		end := start + 1
		for end < n {
			size := end - start
			if maxSize > 0 && size >= maxSize {
				break
			}
			if size >= minSize && sortedLens[end] < shrink*lb {
				break
			}
			end++
		}
		if n-end < minSize && (maxSize <= 0 || end-start+(n-end) <= 2*maxSize) {
			end = n // absorb a short tail
		}
		spans = append(spans, [2]int{start, end})
		start = end
	}
	return spans
}

// bucketize sorts the probe vectors by decreasing length and groups them
// into buckets per §3.2 (boundaries from bucketSpans). extIDs names column
// col extIDs[col] in the bucket id arrays; nil uses the column numbers
// themselves.
func bucketize(p *matrix.Matrix, extIDs []int32, shrink float64, minSize, maxSize int) []*bucket {
	n := p.N()
	if n == 0 {
		return nil
	}
	r := p.R()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	lens := p.Lengths()
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })
	sorted := make([]float64, n)
	for i, id := range order {
		sorted[i] = lens[id]
	}

	var buckets []*bucket
	for _, sp := range bucketSpans(sorted, shrink, minSize, maxSize) {
		start, end := sp[0], sp[1]
		lb := sorted[start]
		b := &bucket{
			r:    r,
			ids:  make([]int32, end-start),
			lens: make([]float64, end-start),
			dirs: make([]float64, (end-start)*r),
			lb:   lb,
		}
		for i := start; i < end; i++ {
			lid := i - start
			id := order[i]
			if extIDs != nil {
				b.ids[lid] = extIDs[id]
			} else {
				b.ids[lid] = id
			}
			b.lens[lid] = lens[id]
			vecmath.Normalize(b.dir(lid), p.Vec(int(id)))
		}
		buckets = append(buckets, b)
	}
	return buckets
}

// bucketBytes estimates the cache footprint of one probe vector inside a
// bucket: its normalized direction, length, id, and sorted-list index entry
// per coordinate (value + local id).
func bucketBytes(r int) int {
	return r*8 + 8 + 4 + r*(8+4)
}
