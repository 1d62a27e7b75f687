package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"lemp"
)

// bulk-topk: an offline recommendation table. Index.BulkTopK with k=10
// streams the queries from a LEMPMAT1 file through an IE-SVDᵀ-shaped
// catalogue (high length skew, larger than a 4 MiB L2) into a LEMPBRS1
// file, with quantized screening on, checkpointing at the default cadence
// and one worker per CPU. No HTTP, batcher or result cache is involved.

const (
	bulkDim  = 50
	bulkCovP = 1.51 // IE-SVDᵀ probes: the IE-SVD query side (paper Table 1)
	bulkCovQ = 4.44 // IE-SVDᵀ queries: the IE-SVD probe side
)

// bulkShape is the catalogue size and the query rows of one job.
func bulkShape(tiny bool) (probes, rows int) {
	if tiny {
		return 800, 600
	}
	// 23600 probes × 50 × 8 bytes = 9.4 MB; 24576 rows = 96 panels of 256,
	// one default checkpoint per job.
	return 23600, 24576
}

// timedPanels wraps the query source and sums the time spent in Panel.
type timedPanels struct {
	lemp.BulkQuerySource
	ns atomic.Int64
}

func (t *timedPanels) Panel(start, count int) (*lemp.Matrix, error) {
	t0 := time.Now()
	m, err := t.BulkQuerySource.Panel(start, count)
	t.ns.Add(int64(time.Since(t0)))
	return m, err
}

// bulkJob is one measured BulkTopK call.
type bulkJob struct {
	stats   lemp.BulkStats
	wall    time.Duration // around BulkTopK, panel reader open and close included
	cpu     time.Duration // process CPU time over the same span
	panelMS float64
	digest  [32]byte
}

func bulkTopK(r *run) error {
	nProbes, rows := bulkShape(r.tiny)
	par := runtime.NumCPU()
	r.section("bulk-topk: catalogue n=%d r=%d CoV %.2f, %d query rows CoV %.2f per job, k=%d; quant on, parallelism %d, checkpoint every 64 panels",
		nProbes, bulkDim, bulkCovP, rows, bulkCovQ, topkK, par)

	catalogue := func() *lemp.Matrix { return denseVectors(stream(r.seed, "catalogue"), nProbes, bulkDim, bulkCovP) }
	queries := denseVectors(stream(r.seed, "queries"), rows, bulkDim, bulkCovQ)
	qPath := filepath.Join(r.workdir, "queries.lempmat")
	if err := writeMatrixFile(qPath, queries); err != nil {
		return err
	}

	opts := lemp.Options{Algorithm: lemp.AlgorithmLI, Quantize: true}
	var setup []float64
	var ix *lemp.Index
	for i := 0; i < setupReps; i++ {
		p := catalogue()
		start := time.Now()
		var err error
		if ix, err = lemp.New(p, opts); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	heap := liveHeapMB()

	out := filepath.Join(r.workdir, "table.lempbrs")
	ckpt := filepath.Join(r.workdir, "table.ckpt")
	job := func(timed bool) (bulkJob, error) {
		var j bulkJob
		cpu0 := cpuTime()
		start := time.Now()
		pr, err := lemp.OpenQueryPanels(qPath)
		if err != nil {
			return j, err
		}
		var src lemp.BulkQuerySource = pr
		tp := &timedPanels{BulkQuerySource: pr}
		if timed {
			src = tp
		}
		j.stats, err = ix.BulkTopK(context.Background(), src, out, topkK, lemp.BulkOptions{Parallelism: par, Checkpoint: ckpt})
		pr.Close()
		j.wall = time.Since(start)
		j.cpu = cpuTime() - cpu0
		j.panelMS = ms(time.Duration(tp.ns.Load()))
		if err != nil {
			return j, err
		}
		b, err := os.ReadFile(out)
		j.digest = sha256.Sum256(b)
		return j, err
	}

	// Warm-up job: builds the lazy per-bucket indexes.
	first, err := job(false)
	if err != nil {
		return err
	}
	r.attempted++
	measure := func(secs float64, timed bool) ([]bulkJob, error) {
		var jobs []bulkJob
		for stop := time.Now().Add(time.Duration(secs * float64(time.Second))); len(jobs) == 0 || time.Now().Before(stop); {
			j, err := job(timed)
			r.attempted++
			if err != nil {
				r.failed++
				return nil, err
			}
			// Output is a pure function of index, queries and k.
			r.checked++
			if !bytes.Equal(j.digest[:], first.digest[:]) {
				r.mismatch++
				r.failed++
			}
			jobs = append(jobs, j)
		}
		return jobs, nil
	}
	secs := r.seconds
	if r.trace {
		secs /= 2
	}
	base, err := measure(secs, false)
	if err != nil {
		return err
	}
	if err := r.checkBulk(ix, queries, out); err != nil {
		return err
	}
	jobMS, rowsPerS, rowsPerCPU := jobTimes(base)
	r.section("end-to-end (untraced pass)")
	r.setE2E("setup_s", median(setup), len(setup))
	r.setE2E("heap_mb", heap, 1)
	r.setE2E("p50_ms", percentile(jobMS, 0.5), len(jobMS))
	r.note("job_p90_ms", percentile(jobMS, 0.9), "ms", len(jobMS))
	r.setE2E("ops_per_cpu_s", median(rowsPerCPU), len(rowsPerCPU))
	r.note("job_p99_ms", percentile(jobMS, 0.99), "ms", len(jobMS))
	r.note("rows_per_s", median(rowsPerS), "1/s", len(rowsPerS))
	r.note("job_rows", float64(rows), "count", 0)
	if !r.trace {
		r.tuningHistogram([]*lemp.Index{ix})
		return nil
	}

	traced, err := measure(secs, true)
	if err != nil {
		return err
	}
	tracedMS, _, _ := jobTimes(traced)
	r.section("per-layer (traced pass: median over %d jobs, then the min and max)", len(traced))
	// perJob sets a per-layer metric to its median over the jobs and
	// prints its spread: tuning is timed, so counts drift between jobs.
	perJob := func(name string, f func(st lemp.BulkStats) float64) {
		xs := make([]float64, len(traced))
		for i, j := range traced {
			xs[i] = f(j.stats)
		}
		r.setLayer(name, median(xs))
		r.section("  spread %s %.6g..%.6g", name, percentile(xs, 0), percentile(xs, 1))
	}
	perJob("core.tune.busy_ms", func(st lemp.BulkStats) float64 { return ms(st.Core.TuneTime) / st.Wall.Seconds() })
	perJob("core.tune.runs", func(st lemp.BulkStats) float64 { return float64(st.Core.Tunings) })
	perJob("core.tune.cache_hit_ratio", func(st lemp.BulkStats) float64 {
		return ratio(float64(st.Core.TuneCacheHits), float64(st.Core.Tunings+st.Core.TuneCacheHits))
	})
	perJob("core.scan.busy_ms", func(st lemp.BulkStats) float64 { return ms(st.Core.RetrievalTime) / st.Wall.Seconds() })
	perJob("core.scan.candidates_per_query", func(st lemp.BulkStats) float64 { return st.Core.CandidatesPerQuery() })
	perJob("core.scan.pair_prune_ratio", func(st lemp.BulkStats) float64 {
		return ratio(float64(st.Core.PrunedPairs), float64(st.Core.PrunedPairs+st.Core.ProcessedPairs))
	})
	perJob("core.verify.results_per_candidate", func(st lemp.BulkStats) float64 {
		return ratio(float64(st.Core.Results), float64(st.Core.Candidates))
	})
	perJob("core.verify.block_ratio", func(st lemp.BulkStats) float64 {
		return ratio(float64(st.Core.BlockVerified), float64(st.Core.BlockVerified+st.Core.ScalarVerified))
	})
	perJob("quant.screen_ratio", func(st lemp.BulkStats) float64 {
		return ratio(float64(st.Core.QuantScreened), float64(st.Core.QuantScreened+st.Core.QuantSurvived))
	})
	perJob("bulk.worker_busy_ratio", func(st lemp.BulkStats) float64 {
		return (st.Core.TuneTime + st.Core.RetrievalTime).Seconds() / (st.Wall.Seconds() * float64(par))
	})
	perJob("bulk.checkpoints", func(st lemp.BulkStats) float64 { return float64(st.Checkpoints) })
	perJob("bulk.out_mb", func(st lemp.BulkStats) float64 { return mb(float64(st.OutBytes)) })
	var panelMS []float64
	for _, j := range traced {
		panelMS = append(panelMS, j.panelMS)
	}
	r.setLayer("matrix.panel_read_ms", median(panelMS))
	r.setLayer("core.delta.mass", ix.DeltaMass())
	r.setLayer("core.buckets", float64(ix.NumBuckets()))
	r.setLayer("core.build_ms", median(setup)*1e3)
	r.setLayer("quant.sidecar_mb", mb(float64(ix.SidecarBytes())))
	r.setLayer("trace.overhead_ratio", ratio(percentile(tracedMS, 0.5), r.e2e["p50_ms"]))
	r.tuningHistogram([]*lemp.Index{ix})
	return nil
}

// jobTimes returns each job's wall time in ms, its query rows per second
// and its query rows per CPU-second.
func jobTimes(jobs []bulkJob) (wallMS, rowsPerS, rowsPerCPU []float64) {
	for _, j := range jobs {
		wallMS = append(wallMS, ms(j.wall))
		rowsPerS = append(rowsPerS, float64(j.stats.Rows)/j.wall.Seconds())
		rowsPerCPU = append(rowsPerCPU, ratio(float64(j.stats.Rows), j.cpu.Seconds()))
	}
	return wallMS, rowsPerS, rowsPerCPU
}

func writeMatrixFile(path string, m *lemp.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lemp.WriteMatrix(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkBulk re-reads the result table and compares sampled rows with a
// per-row top-k Retrieve on the same index.
func (r *run) checkBulk(ix *lemp.Index, queries *lemp.Matrix, path string) error {
	res, err := lemp.ReadBulkResults(path)
	if err != nil {
		r.checkFailed("bulk result table", err)
		return nil
	}
	if len(res.Rows) != queries.N() {
		r.checkFailed("bulk result table", fmt.Errorf("%d rows, want %d", len(res.Rows), queries.N()))
		return nil
	}
	step := max(1, queries.N()/64)
	for i := 0; i < queries.N(); i += step {
		want, err := ix.Retrieve(context.Background(), queries.Slice(i, i+1), lemp.TopK(topkK))
		if err != nil {
			return err
		}
		r.checkRow("bulk row", stripQuery(res.Rows[i]), stripQuery(want.TopK[0]))
	}
	return nil
}
