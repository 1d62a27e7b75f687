package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"lemp/internal/quant"
	"lemp/internal/simd"
	"lemp/internal/vecmath"
)

// Verification-kernel experiment: the per-row cost of the two loops that
// run once per surviving candidate — the exact f64 verify (DotBatch over a
// contiguous run, LENGTH's prefix; DotRows over a strided subset,
// coordinate-method survivors) and the int8 checkpoint screen in front of
// it (quant's Filter, half the rows kept) — against the scalar loops they
// replace: one Dot, or one UB plus the cutoff test, per row. r=50 is the
// bulk-topk benchmark's shape. The dispatched kernels are AVX2 assembly
// where the CPU has it; the go test microbenches in internal/vecmath and
// internal/quant add the portable Go kernels.

// kernelRows is the bucket size the kernel experiment verifies against —
// large enough to amortize timing overhead, small enough to stay
// cache-resident like a real LEMP bucket.
const kernelRows = 1024

// kernels measures and prints the per-row kernel timing grid.
func (r *Runner) kernels() error {
	r.header("verification kernels (scalar vs dispatched)")
	fmt.Fprintf(r.cfg.Out, "\ndispatched kernels: %s\n\n%-26s %10s %10s %9s\n",
		simd.Name(), "kernel (ns/row)", "scalar", "dispatched", "speedup")
	row := func(name string, scalar, dispatched float64) {
		fmt.Fprintf(r.cfg.Out, "%-26s %10.2f %10.2f %8.2fx\n", name, scalar, dispatched, scalar/dispatched)
	}
	for _, dim := range []int{16, 50, 64, 256} {
		for _, strided := range []bool{false, true} {
			layout := "contiguous"
			if strided {
				layout = "strided"
			}
			scalar, dispatched := measureVerifyKernels(dim, strided)
			row(fmt.Sprintf("verify r=%d %s", dim, layout), scalar, dispatched)
		}
	}
	for _, dim := range []int{50, 100} {
		scalar, dispatched := measureScreenKernel(dim)
		row(fmt.Sprintf("screen r=%d strided", dim), scalar, dispatched)
	}
	fmt.Fprintln(r.cfg.Out)
	return nil
}

// bestPerRow times pass, best of several rounds so scheduler noise does
// not pollute the printed ratios, in nanoseconds per row.
func bestPerRow(rows, elems int, pass func()) float64 {
	reps := 1 + (1<<22)/(rows*elems+1) // ~4M elements per timed round
	best := time.Duration(1 << 62)
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			pass()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(reps*rows)
}

// kernelPanel draws a cache-resident panel and a candidate list over it:
// every row in order, or a shuffled half.
func kernelPanel(dim int, strided bool) (rng *rand.Rand, q, panel []float64, cand []int32) {
	rng = rand.New(rand.NewSource(int64(dim)))
	q = make([]float64, dim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	panel = make([]float64, kernelRows*dim)
	for i := range panel {
		panel[i] = rng.NormFloat64()
	}
	for lid := int32(0); lid < kernelRows; lid++ {
		if !strided || rng.Intn(2) == 0 {
			cand = append(cand, lid)
		}
	}
	if strided {
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	}
	return rng, q, panel, cand
}

func measureVerifyKernels(dim int, strided bool) (scalar, dispatched float64) {
	_, q, panel, cand := kernelPanel(dim, strided)
	out := make([]float64, len(cand))
	scalar = bestPerRow(len(cand), dim, func() {
		for j, lid := range cand {
			out[j] = vecmath.Dot(q, panel[int(lid)*dim:(int(lid)+1)*dim])
		}
	})
	dispatched = bestPerRow(len(cand), dim, func() {
		if strided {
			vecmath.DotRows(q, panel, cand, out)
		} else {
			vecmath.DotBatch(q, panel, out)
		}
	})
	return scalar, dispatched
}

func measureScreenKernel(dim int) (scalar, dispatched float64) {
	rng, q, panel, cand := kernelPanel(dim, true)
	qq, ok := quant.QuantizeQuery(make([]int8, dim), q)
	if !ok {
		panic("bench: kernel query does not quantize")
	}
	scr := quant.QuantizeRows(panel, dim).NewScreen(qq, 1)
	lens := make([]float64, kernelRows)
	bounds := make([]float64, len(cand))
	for i, l := range cand {
		lens[l] = 0.5 + rng.Float64()
		_, u := scr.UB(int(l))
		bounds[i] = u * lens[l]
	}
	slices.Sort(bounds)
	cut := bounds[len(bounds)/2]
	work := make([]int32, len(cand))
	h := quant.HeadLen(dim)
	scalar = bestPerRow(len(cand), h, func() {
		k := 0
		for _, l := range cand {
			if _, u := scr.UB(int(l)); !(u*lens[l] < cut) {
				work[k] = l
				k++
			}
		}
	})
	dispatched = bestPerRow(len(cand), h, func() {
		copy(work, cand)
		scr.Filter(work, lens, cut, nil)
	})
	return scalar, dispatched
}
