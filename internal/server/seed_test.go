package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lemp"
	"lemp/internal/naive"
	"lemp/internal/vecmath"
)

// seedCase is one catalogue of the seeded top-k exactness table: it builds
// a shard set under the given placement and options and returns it with
// the query matrix to run.
type seedCase struct {
	name  string
	build func(t *testing.T, rng *rand.Rand, kind PlacementKind, opts lemp.Options) (*Sharded, *lemp.Matrix)
}

const seedDim = 8

// seedProbe fills a catalogue of n nonzero vectors with spread-out lengths.
// No two probes coincide, so no shard holds tied values and every shard's
// top-k row is a function of the catalogue alone; ties across shards come
// only from the duplicates case, which places the copies in different
// shards. Clustered catalogues give cluster placement cones to prune with.
func seedProbe(rng *rand.Rand, n int, clustered bool) *lemp.Matrix {
	if clustered {
		p := clusteredProbe(rng, seedDim, n)
		for j := 0; j < n; j++ {
			if vecmath.Norm(p.Vec(j)) == 0 {
				copy(p.Vec(j), seedVec(rng))
			}
		}
		return p
	}
	p := lemp.NewMatrix(seedDim, n)
	for j := 0; j < n; j++ {
		copy(p.Vec(j), seedVec(rng))
	}
	return p
}

// seedVec draws a random direction with a length in [0.3, 3).
func seedVec(rng *rand.Rand) []float64 {
	v := make([]float64, seedDim)
	for f := range v {
		v[f] = rng.NormFloat64()
	}
	vecmath.Scale(v, v, (0.3+2.7*rng.Float64())/vecmath.Norm(v))
	return v
}

// seedQueries mixes random directions, directions close to a catalogue
// probe (so cone pruning has something to cut) and a zero-length row.
func seedQueries(rng *rand.Rand, p *lemp.Matrix, m int) *lemp.Matrix {
	q := lemp.NewMatrix(seedDim, m)
	for i := 1; i < m; i++ { // row 0 stays zero
		v := q.Vec(i)
		if i%2 == 0 {
			copy(v, seedVec(rng))
			continue
		}
		src := p.Vec(rng.Intn(p.N()))
		for f := range v {
			v[f] = src[f] + 0.05*rng.NormFloat64()
		}
	}
	return q
}

// longestIDs returns the ids of the n longest live probes of a shard set.
func longestIDs(sh *Sharded, n int) []int32 {
	type probe struct {
		id  int32
		len float64
	}
	var all []probe
	for _, ix := range sh.Indexes() {
		m, ids := ix.LiveProbes()
		for c, id := range ids {
			all = append(all, probe{id, vecmath.Norm(m.Vec(c))})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].len > all[b].len })
	out := make([]int32, n)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

var seedCases = []seedCase{
	{"fresh", func(t *testing.T, rng *rand.Rand, kind PlacementKind, opts lemp.Options) (*Sharded, *lemp.Matrix) {
		p := seedProbe(rng, 240, kind == PlaceCluster)
		return mustPlaced(t, p, kind, opts), seedQueries(rng, p, 9)
	}},
	{"tombstoned-head", func(t *testing.T, rng *rand.Rand, kind PlacementKind, opts lemp.Options) (*Sharded, *lemp.Matrix) {
		// Removing the longest probes leaves tombstones in every shard's
		// leading buckets (compaction off), which the seed must skip.
		p := seedProbe(rng, 240, kind == PlaceCluster)
		sh := mustPlaced(t, p, kind, opts)
		var ops []lemp.ProbeUpdate
		for _, id := range longestIDs(sh, 20) {
			ops = append(ops, lemp.ProbeUpdate{Op: lemp.OpRemove, ID: id})
		}
		if _, err := sh.Update(ops, -1); err != nil {
			t.Fatal(err)
		}
		return sh, seedQueries(rng, p, 9)
	}},
	{"delta-first", func(t *testing.T, rng *rand.Rand, kind PlacementKind, opts lemp.Options) (*Sharded, *lemp.Matrix) {
		// Probes longer than any existing one land in delta buckets that
		// sort first in the scan: the seed head starts in the delta layer,
		// and the rewritten probe also tombstones its main-bucket entry.
		p := seedProbe(rng, 240, kind == PlaceCluster)
		sh := mustPlaced(t, p, kind, opts)
		long := func(scale float64) []float64 {
			v := seedVec(rng)
			vecmath.Scale(v, v, scale/vecmath.Norm(v))
			return v
		}
		ops := []lemp.ProbeUpdate{
			{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: long(9)},
			{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: long(7)},
			{Op: lemp.OpUpdate, ID: longestIDs(sh, 1)[0], Vec: long(8)},
		}
		if _, err := sh.Update(ops, -1); err != nil {
			t.Fatal(err)
		}
		return sh, seedQueries(rng, p, 9)
	}},
	{"all-negative", func(t *testing.T, rng *rand.Rand, kind PlacementKind, opts lemp.Options) (*Sharded, *lemp.Matrix) {
		// Probes point along +e0 and queries along -e0, so every product
		// is negative and so is every floor.
		p := lemp.NewMatrix(seedDim, 240)
		for j := 0; j < p.N(); j++ {
			v := p.Vec(j)
			for f := range v {
				v[f] = 0.1 * rng.NormFloat64()
			}
			v[0] = 1 + rng.Float64()
			vecmath.Scale(v, v, 0.3+2.7*rng.Float64())
		}
		q := lemp.NewMatrix(seedDim, 9)
		for i := 1; i < q.N(); i++ {
			v := q.Vec(i)
			for f := range v {
				v[f] = 0.1 * rng.NormFloat64()
			}
			v[0] = -(1 + rng.Float64())
		}
		for i := 1; i < q.N(); i++ {
			for j := 0; j < p.N(); j++ {
				if vecmath.Dot(q.Vec(i), p.Vec(j)) >= 0 {
					t.Fatalf("fixture: product (%d,%d) is not negative", i, j)
				}
			}
		}
		return mustPlaced(t, p, kind, opts), q
	}},
	{"cross-shard-duplicates", func(t *testing.T, rng *rand.Rand, kind PlacementKind, opts lemp.Options) (*Sharded, *lemp.Matrix) {
		// Every shard holds its own copy, under its own id, of the same 12
		// long vectors: the top values come in tied triples from
		// different shards, so floors sit exactly on tied values and the
		// merge's probe-id tie break decides which copies make the row.
		const shards, own, dups = 3, 70, 12
		dup := make([][]float64, dups)
		for d := range dup {
			dup[d] = seedVec(rng)
			vecmath.Scale(dup[d], dup[d], 3+rng.Float64())
		}
		ixs := make([]*lemp.Index, shards)
		all := lemp.NewMatrix(seedDim, shards*(own+dups))
		for s := range ixs {
			m := lemp.NewMatrix(seedDim, own+dups)
			ids := make([]int32, own+dups)
			for c := 0; c < own+dups; c++ {
				if c < dups {
					copy(m.Vec(c), dup[c])
				} else {
					copy(m.Vec(c), seedVec(rng))
				}
				// Interleave the ids so no shard owns all the small ones.
				ids[c] = int32(c*shards + s)
				copy(all.Vec(int(ids[c])), m.Vec(c))
			}
			ix, err := lemp.NewWithIDs(m, ids, opts)
			if err != nil {
				t.Fatal(err)
			}
			ixs[s] = ix
		}
		sh, err := NewShardedFromIndexesPlaced(ixs, kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sh, seedQueries(rng, all, 9)
	}},
	{"tie-behind-head", func(t *testing.T, rng *rand.Rand, kind PlacementKind, opts lemp.Options) (*Sharded, *lemp.Matrix) {
		// Shard 0 holds 12 vectors as its longest probes, so its seed
		// head sets the floors from them. Shard 1 holds copies under
		// smaller ids behind a head of longer probes pointing away from
		// them: the copies win the merge's tie break, so phase 2 must keep
		// entries whose values equal the floor exactly, through bounds
		// evaluated in rounded arithmetic.
		const dups, own, long = 12, 60, 40
		dup := make([][]float64, dups)
		for d := range dup {
			dup[d] = seedVec(rng)
			vecmath.Scale(dup[d], dup[d], 3+rng.Float64())
		}
		all := lemp.NewMatrix(seedDim, 2*dups+own+long)
		next := 0
		add := func(m *lemp.Matrix, ids []int32, c int, v []float64, id int) {
			copy(m.Vec(c), v)
			copy(all.Vec(id), v)
			ids[c] = int32(id)
			next = max(next, id+1)
		}
		m0, ids0 := lemp.NewMatrix(seedDim, dups+own), make([]int32, dups+own)
		m1, ids1 := lemp.NewMatrix(seedDim, dups+long), make([]int32, dups+long)
		for d, v := range dup {
			add(m1, ids1, d, v, d)
			add(m0, ids0, d, v, dups+d)
		}
		for c := 0; c < own; c++ {
			v := seedVec(rng)
			vecmath.Scale(v, v, 0.5/vecmath.Norm(v))
			add(m0, ids0, dups+c, v, next)
		}
		for c := 0; c < long; c++ {
			v := make([]float64, seedDim)
			src := dup[c%dups]
			for f := range v {
				v[f] = -src[f] + 0.3*rng.NormFloat64()
			}
			vecmath.Scale(v, v, (5+rng.Float64())/vecmath.Norm(v))
			add(m1, ids1, dups+c, v, next)
		}
		ix0, err := lemp.NewWithIDs(m0, ids0, opts)
		if err != nil {
			t.Fatal(err)
		}
		ix1, err := lemp.NewWithIDs(m1, ids1, opts)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := NewShardedFromIndexesPlaced([]*lemp.Index{ix0, ix1}, kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Odd rows point exactly along a copied vector, where every bound
		// is tight and the tied value is the row's maximum.
		q := lemp.NewMatrix(seedDim, 9)
		for i := 1; i < q.N(); i++ {
			v, src := q.Vec(i), dup[rng.Intn(dups)]
			for f := range v {
				v[f] = 0.7 * src[f]
				if i%2 == 0 {
					v[f] += 0.2 * rng.NormFloat64()
				}
			}
		}
		return sh, q
	}},
}

func mustPlaced(t *testing.T, p *lemp.Matrix, kind PlacementKind, opts lemp.Options) *Sharded {
	t.Helper()
	sh, err := NewShardedPlaced(p, nil, 3, opts, kind)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestSeededTopKExact is the exactness table of the seeded sharded
// Row-Top-k: for every catalogue case, placement and quant setting and
// k ∈ {1, 10, more than the live count}, the two-phase top-k through a
// View must be byte-identical to an unseeded fan-out over the same shard
// indexes merged with MergeTopK, and must rank the same entries as the
// naive product of all live probes (whose values differ in the last ulp:
// it multiplies raw vectors instead of unit directions).
func TestSeededTopKExact(t *testing.T) {
	algos := []lemp.Algorithm{
		lemp.AlgorithmLI, lemp.AlgorithmL, lemp.AlgorithmC, lemp.AlgorithmI,
		lemp.AlgorithmLC, lemp.AlgorithmTA, lemp.AlgorithmTree, lemp.AlgorithmL2AP,
	}
	var seeded, pruned uint64
	run := 0
	for _, tc := range seedCases {
		for _, kind := range []PlacementKind{PlaceRange, PlaceCost, PlaceCluster} {
			for _, quant := range []bool{false, true} {
				run++
				opts := lemp.Options{
					Algorithm:     algos[run%len(algos)],
					Parallelism:   1,
					MinBucketSize: 4,
					SampleQueries: 4,
					Quantize:      quant,
					Seed:          int64(run),
				}
				rng := rand.New(rand.NewSource(int64(7000 + run)))
				sh, q := tc.build(t, rng, kind, opts)
				name := tc.name + "/" + string(kind)
				if quant {
					name += "/quant"
				}
				// The whole matrix, then every row alone: a batch prunes a
				// shard only when every row's cone bound is below its
				// floor, which a single probe-like row often achieves.
				batches := []*lemp.Matrix{q}
				for i := 0; i < q.N(); i++ {
					batches = append(batches, q.Slice(i, i+1))
				}
				for _, k := range []int{1, 10, sh.N() + 5} {
					for _, b := range batches {
						before := sh.CumulativeStats().SeedProducts
						prunedBefore := sh.ShardsPruned()
						got, _, err := sh.TopK(b, k)
						if err != nil {
							t.Fatalf("%s k=%d: %v", name, k, err)
						}
						if sh.CumulativeStats().SeedProducts > before {
							seeded++
						}
						pruned += sh.ShardsPruned() - prunedBefore
						compareRows(t, name+" seeded vs unseeded fan-out", got, unseededTopK(t, sh, b, k))
						compareNaiveTopK(t, name, sh, b, k, got)
					}
				}
			}
		}
	}
	if seeded == 0 {
		t.Fatal("no call ran the seed phase")
	}
	if pruned == 0 {
		t.Fatal("no cluster-placed top-k call pruned a shard")
	}
}

// unseededTopK is the reference fan-out: a plain TopK on every shard
// index, merged.
func unseededTopK(t *testing.T, sh *Sharded, q *lemp.Matrix, k int) lemp.TopKRows {
	t.Helper()
	var parts []lemp.TopKRows
	for _, ix := range sh.Indexes() {
		res, err := ix.Retrieve(context.Background(), q, lemp.TopK(k))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, res.TopK)
	}
	return lemp.MergeTopK(k, parts...)
}

// compareNaiveTopK checks got against the naive product of every live
// probe: same row lengths, every returned value within rounding of its
// rank's naive value and of its own probe's direct product.
func compareNaiveTopK(t *testing.T, name string, sh *Sharded, q *lemp.Matrix, k int, got lemp.TopKRows) {
	t.Helper()
	var ids []int32
	var vecs [][]float64
	for _, ix := range sh.Indexes() {
		m, mids := ix.LiveProbes()
		for c, id := range mids {
			ids = append(ids, id)
			vecs = append(vecs, m.Vec(c))
		}
	}
	p := lemp.NewMatrix(seedDim, len(ids))
	byID := make(map[int][]float64, len(ids))
	for c, v := range vecs {
		copy(p.Vec(c), v)
		byID[int(ids[c])] = v
	}
	want, _ := naive.RowTopK(q, p, k)
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s k=%d row %d: %d entries, naive has %d", name, k, i, len(got[i]), len(want[i]))
		}
		for j, e := range got[i] {
			if !close(e.Value, want[i][j].Value) {
				t.Fatalf("%s k=%d row %d rank %d: value %v, naive %v", name, k, i, j, e.Value, want[i][j].Value)
			}
			if d := vecmath.Dot(q.Vec(i), byID[e.Probe]); !close(e.Value, d) {
				t.Fatalf("%s k=%d row %d rank %d: probe %d value %v, direct product %v", name, k, i, j, e.Probe, e.Value, d)
			}
		}
	}
}

// TestSeededTopKPhaseAccounting pins what the seed phase may and may not
// touch: it adds SeedProducts, leaves the shard-scan counter at one scan
// per shard per batch, and a one-shard view never seeds.
func TestSeededTopKPhaseAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := seedProbe(rng, 300, false)
	q := seedQueries(rng, p, 6)
	opts := lemp.Options{Parallelism: 1, MinBucketSize: 4}
	for _, shards := range []int{1, 3} {
		sh, err := NewSharded(p, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := sh.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := sh.ShardsScanned(); got != uint64(shards) {
			t.Fatalf("%d shards: ShardsScanned = %d after one batch", shards, got)
		}
		if seededCall := st.SeedProducts > 0; seededCall != (shards > 1) {
			t.Fatalf("%d shards: SeedProducts = %d", shards, st.SeedProducts)
		}
		if cum := sh.CumulativeStats().SeedProducts; cum != st.SeedProducts {
			t.Fatalf("%d shards: cumulative SeedProducts %d, call reported %d", shards, cum, st.SeedProducts)
		}
	}
}

// TestSeededTopKConcurrentBatches runs seeded batches from several
// goroutines at once against one shard set. Each phase takes the shard
// mutexes on its own, so concurrent batches interleave their phases
// without deadlock, and every batch still returns its sequential answer.
func TestSeededTopKConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := seedProbe(rng, 400, false)
	sh, err := NewSharded(p, 4, lemp.Options{Parallelism: 1, MinBucketSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	qs := make([]*lemp.Matrix, workers)
	want := make([]lemp.TopKRows, workers)
	for w := range qs {
		qs[w] = seedQueries(rng, p, 1+w)
		if want[w], _, err = sh.TopK(qs[w], 1+2*w); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				got, _, err := sh.TopK(qs[w], 1+2*w)
				if err == nil && !reflect.DeepEqual(got, want[w]) {
					err = fmt.Errorf("worker %d call %d: rows differ from the sequential answer", w, i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
