package vecmath

import (
	"fmt"
	"math/rand"
	"testing"

	"lemp/internal/simd"
	"lemp/internal/simd/simdtest"
)

// Kernel micro-benchmarks: one query against a panel of probe directions,
// scalar (one Dot per row) vs the blocked list kernels, across the
// dimensionality regimes the library targets — r=50 is the bulk-topk
// benchmark's shape — and both candidate layouts the verifier sees: the
// whole contiguous panel (DotBatch) and a shuffled half of it (DotRows,
// coordinate-method survivors). The panel is sized to stay cache-resident,
// matching LEMP's bucket design, so the comparison isolates the kernels
// rather than memory bandwidth. "dispatched" is what production runs (the
// AVX2 kernel where the CPU has it), "generic" the portable Go kernel.

const benchRows = 512

func benchPanel(r int) (q, panel []float64, out []float64) {
	rng := rand.New(rand.NewSource(int64(r)))
	q = make([]float64, r)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	panel = make([]float64, benchRows*r)
	for i := range panel {
		panel[i] = rng.NormFloat64()
	}
	return q, panel, make([]float64, benchRows)
}

// benchStrided is a shuffled half of the panel's rows.
func benchStrided(r int) []int32 {
	rng := rand.New(rand.NewSource(int64(r) + 1))
	var lids []int32
	for l := int32(0); l < benchRows; l++ {
		if rng.Intn(2) == 0 {
			lids = append(lids, l)
		}
	}
	rng.Shuffle(len(lids), func(i, j int) { lids[i], lids[j] = lids[j], lids[i] })
	return lids
}

func BenchmarkVerifyKernels(b *testing.B) {
	b.Logf("kernels: %s", simd.Name())
	for _, r := range []int{16, 50, 64, 256} {
		q, panel, out := benchPanel(r)
		lids := benchStrided(r)
		for _, layout := range []string{"contiguous", "strided"} {
			rows := benchRows
			if layout == "strided" {
				rows = len(lids)
			}
			scalar := func() {
				if layout == "strided" {
					for j, l := range lids {
						out[j] = Dot(q, panel[int(l)*r:int(l+1)*r])
					}
					return
				}
				for j := 0; j < benchRows; j++ {
					out[j] = Dot(q, panel[j*r:(j+1)*r])
				}
			}
			blocked := func() {
				if layout == "strided" {
					DotRows(q, panel, lids, out[:len(lids)])
					return
				}
				DotBatch(q, panel, out)
			}
			run := func(name string, pass func()) {
				b.Run(fmt.Sprintf("r=%d/%s/%s", r, layout, name), func(b *testing.B) {
					b.SetBytes(int64(rows * r * 8))
					for i := 0; i < b.N; i++ {
						pass()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
				})
			}
			run("scalar", scalar)
			run("dispatched", blocked)
			simdtest.Portable(func() { run("generic", blocked) })
		}
	}
}

func BenchmarkDotNorm2(b *testing.B) {
	for _, r := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			q, panel, _ := benchPanel(r)
			b.SetBytes(int64(2 * r * 8))
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, n := DotNorm2(q, panel[:r])
				sink += d + n
			}
			_ = sink
		})
	}
}
