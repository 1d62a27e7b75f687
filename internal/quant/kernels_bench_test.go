package quant_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lemp/internal/quant"
	"lemp/internal/simd"
	"lemp/internal/simd/simdtest"
)

// Microbenchmarks for the screening hot path: the per-row cost of Filter
// (head dot plus fused cutoff predicate plus in-place compaction) is what
// the verifier pays per screened candidate. r=50 with a shuffled half of a
// cache-resident panel is the bulk-topk benchmark's shape; r=100 keeps the
// same 16-element head over a wider row, r=200 has a 33-element head. The
// cutoff is the median bound, so half the rows are screened.
// "dispatched" is what production runs (AVX2 where the CPU has it),
// "generic" the portable Go screen. The full-dot kernels (DotQ8,
// ApproxBound) have benches in quant_test.go. Reported as ns/row for
// cross-run comparison.

const benchN = 4096

func benchRows(tb testing.TB, r int) (*quant.Rows, quant.Query) {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	rows := make([]float64, benchN*r)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	q := make([]float64, r)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	qr := quant.QuantizeRows(rows, r)
	qq, ok := quant.QuantizeQuery(make([]int8, r), q)
	if !ok {
		tb.Fatal("query failed to quantize")
	}
	return qr, qq
}

func BenchmarkScreenKernels(b *testing.B) {
	b.Logf("kernels: %s", simd.Name())
	for _, r := range []int{50, 100, 200} {
		qr, qq := benchRows(b, r)
		scr := qr.NewScreen(qq, 1)
		rng := rand.New(rand.NewSource(int64(r)))
		lens := make([]float64, benchN)
		var lids []int32
		for l := range lens {
			lens[l] = 0.5 + rng.Float64()
			if rng.Intn(2) == 0 {
				lids = append(lids, int32(l))
			}
		}
		rng.Shuffle(len(lids), func(i, j int) { lids[i], lids[j] = lids[j], lids[i] })
		bounds := make([]float64, len(lids))
		for i, l := range lids {
			_, u := scr.UB(int(l))
			bounds[i] = u * lens[l]
		}
		slices.Sort(bounds)
		cut := bounds[len(bounds)/2]
		work := make([]int32, len(lids))
		run := func(name string) {
			b.Run(fmt.Sprintf("r=%d/strided/%s", r, name), func(b *testing.B) {
				kept := 0
				for i := 0; i < b.N; i++ {
					copy(work, lids)
					kept += scr.Filter(work, lens, cut, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(lids)), "ns/row")
				b.ReportMetric(float64(kept)/float64(b.N)/float64(len(lids)), "kept/row")
			})
		}
		run("dispatched")
		simdtest.Portable(func() { run("generic") })
	}
}
