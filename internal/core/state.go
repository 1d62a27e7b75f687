package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/quant"
)

// State is the serializable snapshot of an Index: the probe matrix, the
// effective options, and the bucketization (§3.2) with any tuned per-bucket
// parameters (§4.4). It is the contract between core and internal/snapshot:
// Index.State exports it, FromState rebuilds an index from it without
// re-running bucketization or tuning.
//
// The slices returned by Index.State alias the index's internal storage —
// they may be read (serialized) but must not be mutated.
type State struct {
	Opts     Options
	Probe    *matrix.Matrix
	Pretuned bool // per-call tuning is frozen (Index.PretuneTopK et al.)
	Buckets  []BucketState

	// IDs maps probe column → external id; nil means the identity mapping
	// (column numbers are the ids). Mutated-then-compacted indexes have
	// arbitrary stable ids.
	IDs []int32
	// Epoch is the mutation epoch (delta.go); NextID the next AutoID
	// assignment. A zero NextID means "derive from the ids".
	Epoch  uint64
	NextID int32

	// Shard-placement metadata (snapshot PLMT section): the placement
	// strategy the shard set holding this index was built with, and — for
	// cluster placement — the shard's direction cone. Both are passive
	// pass-through for the serving layer: State never sets them (the owner
	// of the shard set does before writing a snapshot) and FromState
	// ignores them (the loader hands them back to the serving layer, which
	// recomputes anything missing).
	PlacementKind string
	Cone          *Cone

	// Retained tuning sample (§4.4). A Pretune call keeps the query sample
	// and problem it fitted so Compact can re-freeze the parameters after a
	// re-bucketization; persisting them lets a snapshot-restored pretuned
	// index do the same instead of silently dropping back to defaults.
	// TuneSample nil means no sample was retained; TuneTopK selects the
	// problem kind (Row-Top-k at TuneK, else Above-θ at TuneTheta).
	TuneSample *matrix.Matrix
	TuneTopK   bool
	TuneK      int
	TuneTheta  float64
}

// BucketState is the serializable state of one probe bucket: the sorted
// membership (§3.2) and the tuned algorithm-selection parameters (§4.4).
// Most lazily built per-bucket indexes (trees, L2AP, signatures) are not
// part of the state and are rebuilt lazily after a restore; the sorted-list
// index — the one COORD/INCR/TA rebuild on a restored server's first batch,
// dominating post-restore latency — can optionally ride along (ListVals/
// ListLids, persisted as the snapshot SLST section).
type BucketState struct {
	IDs   []int32   // original probe column numbers, by decreasing length
	Lens  []float64 // vector lengths, decreasing
	Dirs  []float64 // normalized vectors, contiguous (len(IDs) × r)
	Tuned bool
	TB    float64
	Phi   int

	// Sorted-list index (§4.2, Fig. 4c), both len(IDs) × r in
	// coordinate-major layout (list f occupies [f·n, (f+1)·n)), or nil when
	// the bucket's lists were never built. FromState verifies they are
	// exactly what buildLists would produce from Dirs — a corrupted or
	// hand-edited list index fails to load rather than mis-pruning.
	ListVals []float64
	ListLids []int32

	// Quantized screening sidecar (internal/quant, persisted as the
	// snapshot QNT8 section): per-row scales, int8 codes (len(IDs) × r,
	// row-major) and residual-norm bounds, or all nil when the bucket
	// carries no sidecar. Like the sorted lists, FromState verifies the
	// arrays are exactly what QuantizeRows would produce from Dirs —
	// quantization is deterministic — so a corrupted sidecar fails to load
	// rather than silently screening wrong candidates. The dequantized-norm
	// array is recomputed on load, not persisted.
	QuantScales []float64
	QuantCodes  []int8
	QuantResid  []float64
}

// State exports the index's serializable state. The contained slices alias
// index storage and must not be mutated; retrieval calls must not run
// concurrently with serialization (tuning rewrites bucket parameters).
//
// A mutated index (live delta layer) is compacted on export — into a
// private copy, the receiver is unchanged — so the state always describes
// a tombstone-free bucketization over the live probe set with external ids
// preserved. Loading it answers queries identically to the mutated index.
func (ix *Index) State() *State {
	if ix.mutated() {
		cp := ix.shallowClone()
		cp.Compact()
		return cp.State()
	}
	st := &State{
		Opts:     ix.opts,
		Probe:    ix.probe,
		Pretuned: ix.pretuned,
		Buckets:  make([]BucketState, len(ix.buckets)),
		IDs:      ix.explicitIDs(),
		Epoch:    ix.epoch,
		NextID:   ix.nextID,
	}
	if ix.pretuned && ix.tuneSample != nil {
		st.TuneSample = ix.tuneSample
		switch p := ix.tuneProb.(type) {
		case tuneTopK:
			st.TuneTopK, st.TuneK = true, p.k
		case tuneAbove:
			st.TuneTheta = p.theta
		default:
			st.TuneSample = nil // unknown problem: nothing to persist
		}
	}
	for i, b := range ix.buckets {
		st.Buckets[i] = BucketState{
			IDs:   b.ids,
			Lens:  b.lens,
			Dirs:  b.dirs,
			Tuned: b.tuned,
			TB:    b.tb,
			Phi:   b.phi,
		}
		if b.lists != nil {
			st.Buckets[i].ListVals = b.lists.vals
			st.Buckets[i].ListLids = b.lists.lids
		}
		if b.q8 != nil {
			st.Buckets[i].QuantScales = b.q8.Scales
			st.Buckets[i].QuantCodes = b.q8.Codes
			st.Buckets[i].QuantResid = b.q8.Resid
		}
	}
	return st
}

// Probe returns the probe matrix the index was built over (or restored
// with). It aliases index state and must not be mutated.
func (ix *Index) Probe() *matrix.Matrix { return ix.probe }

// Pretuned reports whether per-call tuning is frozen: the index reuses its
// stored per-bucket parameters instead of re-tuning on every retrieval.
func (ix *Index) Pretuned() bool { return ix.pretuned }

// FromState rebuilds an index from an exported state, skipping the
// bucketization and tuning phases — the whole point of snapshot restore:
// startup cost is O(read) instead of O(index). The state is validated
// structurally (every invariant retrieval relies on) so a corrupt or
// hand-edited snapshot fails loudly here instead of serving wrong results.
// The state's slices are adopted, not copied; the caller must not reuse
// them.
func FromState(st *State) (*Index, error) {
	start := time.Now()
	opts := st.Opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if st.Probe == nil {
		return nil, fmt.Errorf("core: state has no probe matrix")
	}
	r, n := st.Probe.R(), st.Probe.N()
	ix := &Index{opts: opts, r: r, n: n, probe: st.Probe, pretuned: st.Pretuned, id: indexSeq.Add(1)}
	if st.TuneSample != nil && st.Pretuned {
		if st.TuneSample.R() != r {
			return nil, fmt.Errorf("core: tuning sample dimension %d does not match probe dimension %d", st.TuneSample.R(), r)
		}
		if st.TuneSample.N() == 0 {
			return nil, fmt.Errorf("core: retained tuning sample is empty")
		}
		for _, x := range st.TuneSample.Data() {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("core: tuning sample holds non-finite value %v", x)
			}
		}
		if st.TuneTopK {
			if st.TuneK < 1 {
				return nil, fmt.Errorf("core: retained tuning k %d must be positive", st.TuneK)
			}
			ix.tuneProb = tuneTopK{k: st.TuneK}
		} else {
			if !(st.TuneTheta > 0) || math.IsInf(st.TuneTheta, 0) {
				return nil, fmt.Errorf("core: retained tuning theta %v must be a positive finite number", st.TuneTheta)
			}
			ix.tuneProb = tuneAbove{theta: st.TuneTheta}
		}
		ix.tuneSample = st.TuneSample
	}
	// Resolve the external id universe: identity (ids are column numbers)
	// or the explicit column → id mapping of a compacted mutated index.
	var idSet map[int32]bool // id → seen in a bucket yet; nil = identity
	if st.IDs != nil {
		if len(st.IDs) != n {
			return nil, fmt.Errorf("core: state has %d probe ids for %d probes", len(st.IDs), n)
		}
		idSet = make(map[int32]bool, n)
		for _, id := range st.IDs {
			if id < 0 || id > MaxProbeID {
				return nil, fmt.Errorf("core: probe id %d out of range [0, %d]", id, int32(MaxProbeID))
			}
			if _, dup := idSet[id]; dup {
				return nil, fmt.Errorf("core: probe id %d appears twice", id)
			}
			idSet[id] = false
		}
	}
	ix.buckets = make([]*bucket, len(st.Buckets))
	seen := make([]bool, n)
	var listSeen []bool // per-list permutation check scratch, sized on demand
	total := 0
	prevLen := math.Inf(1)
	for i, bs := range st.Buckets {
		size := len(bs.IDs)
		if size == 0 {
			return nil, fmt.Errorf("core: bucket %d is empty", i)
		}
		if len(bs.Lens) != size || len(bs.Dirs) != size*r {
			return nil, fmt.Errorf("core: bucket %d shape mismatch: %d ids, %d lens, %d dirs (r=%d)",
				i, size, len(bs.Lens), len(bs.Dirs), r)
		}
		total += size
		if total > n {
			return nil, fmt.Errorf("core: buckets hold more than %d probes", n)
		}
		for j, id := range bs.IDs {
			if idSet != nil {
				used, known := idSet[id]
				if !known {
					return nil, fmt.Errorf("core: bucket %d id %d is not a probe id", i, id)
				}
				if used {
					return nil, fmt.Errorf("core: probe id %d appears twice", id)
				}
				idSet[id] = true
			} else {
				if id < 0 || int(id) >= n {
					return nil, fmt.Errorf("core: bucket %d id %d out of range [0,%d)", i, id, n)
				}
				if seen[id] {
					return nil, fmt.Errorf("core: probe id %d appears twice", id)
				}
				seen[id] = true
			}
			l := bs.Lens[j]
			if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
				return nil, fmt.Errorf("core: bucket %d length %d is %v", i, j, l)
			}
			if l > prevLen {
				return nil, fmt.Errorf("core: lengths not in decreasing order at bucket %d entry %d", i, j)
			}
			prevLen = l
		}
		for j, d := range bs.Dirs {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("core: bucket %d direction value %d is %v", i, j, d)
			}
		}
		if bs.Tuned && (math.IsNaN(bs.TB) || bs.Phi < 1) {
			return nil, fmt.Errorf("core: bucket %d tuned parameters invalid (tb=%v, phi=%d)", i, bs.TB, bs.Phi)
		}
		b := &bucket{
			r:     r,
			ids:   bs.IDs,
			lens:  bs.Lens,
			dirs:  bs.Dirs,
			lb:    bs.Lens[0],
			tuned: bs.Tuned,
			tb:    bs.TB,
			phi:   bs.Phi,
		}
		if bs.ListVals != nil || bs.ListLids != nil {
			if len(bs.ListVals) != size*r || len(bs.ListLids) != size*r {
				return nil, fmt.Errorf("core: bucket %d sorted-list shape mismatch: %d vals, %d lids, want %d each",
					i, len(bs.ListVals), len(bs.ListLids), size*r)
			}
			if len(listSeen) < size {
				listSeen = make([]bool, size)
			}
			if err := checkLists(bs.ListVals, bs.ListLids, bs.Dirs, size, r, listSeen); err != nil {
				return nil, fmt.Errorf("core: bucket %d sorted lists: %w", i, err)
			}
			b.lists = &sortedLists{n: size, vals: bs.ListVals, lids: bs.ListLids}
			b.built.Store(true)
		}
		if bs.QuantScales != nil || bs.QuantCodes != nil || bs.QuantResid != nil {
			if !opts.Quantize {
				return nil, fmt.Errorf("core: bucket %d carries a quantized sidecar but Options.Quantize is off", i)
			}
			if r < 1 || r > quant.MaxDim {
				return nil, fmt.Errorf("core: bucket %d quantized sidecar at unsupported dimension %d", i, r)
			}
			if len(bs.QuantScales) != size || len(bs.QuantResid) != size || len(bs.QuantCodes) != size*r {
				return nil, fmt.Errorf("core: bucket %d quantized sidecar shape mismatch: %d scales, %d resid, %d codes (size=%d, r=%d)",
					i, len(bs.QuantScales), len(bs.QuantResid), len(bs.QuantCodes), size, r)
			}
			// Quantization is deterministic, so the persisted sidecar must
			// be exactly what QuantizeRows produces from the (already
			// validated) directions — anything else is corruption that
			// would make screening unsound.
			q8 := quant.QuantizeRows(bs.Dirs, r)
			if !slices.Equal(q8.Scales, bs.QuantScales) ||
				!slices.Equal(q8.Codes, bs.QuantCodes) ||
				!slices.Equal(q8.Resid, bs.QuantResid) {
				return nil, fmt.Errorf("core: bucket %d quantized sidecar does not match its directions", i)
			}
			b.q8 = q8
		}
		ix.buckets[i] = b
		if size > ix.maxBucket {
			ix.maxBucket = size
		}
	}
	if total != n {
		return nil, fmt.Errorf("core: buckets hold %d probes, probe matrix has %d", total, n)
	}
	ix.setIDs(st.IDs)
	// Quantize on but no (or only some) persisted sidecars — a pre-quant
	// snapshot loaded with screening requested: quantize the missing ones.
	ix.attachSidecars(ix.buckets)
	ix.refreshScan()
	ix.nextID = maxIDPlusOne(ix)
	if st.NextID > ix.nextID {
		ix.nextID = st.NextID
	}
	ix.epoch = st.Epoch
	ix.prepTime = time.Since(start)
	return ix, nil
}
