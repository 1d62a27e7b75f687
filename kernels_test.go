package lemp_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lemp"
	"lemp/internal/simd/simdtest"
)

// spectralMatrix draws n vectors of dimension r whose coordinate f is
// damped by (f+1)^-0.6 — the shape of SVD/NMF factors, where the int8
// screen's head checkpoint bites — with log-normal lengths.
func spectralMatrix(rng *rand.Rand, n, r int) *lemp.Matrix {
	m := lemp.NewMatrix(r, n)
	for i := 0; i < n; i++ {
		v := m.Vec(i)
		scale := math.Exp(0.8 * rng.NormFloat64())
		for f := range v {
			v[f] = scale * math.Pow(float64(f+1), -0.6) * rng.NormFloat64()
		}
	}
	return m
}

// topKBytes serialises top-k rows to bytes: per row its length, then each
// entry's probe id and value bits, in the order retrieval returned them.
func topKBytes(rows lemp.TopKRows) []byte {
	var b bytes.Buffer
	for _, row := range rows {
		binary.Write(&b, binary.LittleEndian, int32(len(row)))
		for _, e := range row {
			binary.Write(&b, binary.LittleEndian, int32(e.Probe))
			binary.Write(&b, binary.LittleEndian, math.Float64bits(e.Value))
		}
	}
	return b.Bytes()
}

// entryBytes serialises an Above-θ result set in canonical (query, probe)
// order with the value bits.
func entryBytes(entries []lemp.Entry) []byte {
	sorted := append([]lemp.Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Query != sorted[j].Query {
			return sorted[i].Query < sorted[j].Query
		}
		return sorted[i].Probe < sorted[j].Probe
	})
	var b bytes.Buffer
	for _, e := range sorted {
		binary.Write(&b, binary.LittleEndian, int32(e.Query))
		binary.Write(&b, binary.LittleEndian, int32(e.Probe))
		binary.Write(&b, binary.LittleEndian, math.Float64bits(e.Value))
	}
	return b.Bytes()
}

// TestKernelSwitchByteIdentical is the end-to-end exactness contract of the
// assembly kernels: on seeded catalogues, Row-Top-k, approximate Row-Top-k
// (whose centroid phase adopts the screen's head dots), Above-θ and a bulk
// Row-Top-k job produce byte-identical results whether the AVX2 kernels
// or the portable Go kernels run, with the int8 screen on and off. Tuning
// is by cost, so both runs make the same bucket-level choices and even
// the order of equal values must match. On a CPU without AVX2 both runs
// take the portable path and the test is vacuous.
func TestKernelSwitchByteIdentical(t *testing.T) {
	for _, r := range []int{50, 13} {
		rng := rand.New(rand.NewSource(int64(900 + r)))
		p := spectralMatrix(rng, 3000, r)
		q := spectralMatrix(rng, 120, r)
		for _, quantize := range []bool{false, true} {
			for _, alg := range []lemp.Algorithm{lemp.AlgorithmLI, lemp.AlgorithmL, lemp.AlgorithmC, lemp.AlgorithmI, lemp.AlgorithmTA} {
				name := fmt.Sprintf("r=%d/quant=%v/%v", r, quantize, alg)
				opts := lemp.Options{
					Algorithm:     alg,
					MinBucketSize: 40,
					CacheBytes:    64 * 1024,
					TuneByCost:    true,
					Quantize:      quantize,
					Parallelism:   2,
				}
				run := func() (topk, approx, above, bulk []byte) {
					ix, err := lemp.New(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					rows, _, err := ix.RowTopK(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					arows, _, err := ix.RowTopKApprox(q, 10, lemp.ApproxOptions{})
					if err != nil {
						t.Fatal(err)
					}
					// θ at query 0's 10th-largest product keeps the result
					// set small and the screen busy.
					theta := rows[0][len(rows[0])-1].Value
					entries, _, err := ix.AboveTheta(q, theta)
					if err != nil {
						t.Fatal(err)
					}
					out := filepath.Join(t.TempDir(), "bulk.lempbrs")
					if _, err := ix.BulkTopK(context.Background(), lemp.BulkQueries(q), out, 10, lemp.BulkOptions{PanelRows: 32}); err != nil {
						t.Fatal(err)
					}
					bulk, err = os.ReadFile(out)
					if err != nil {
						t.Fatal(err)
					}
					return topKBytes(rows), topKBytes(arows), entryBytes(entries), bulk
				}
				topk, approx, above, bulk := run()
				var gTopk, gApprox, gAbove, gBulk []byte
				simdtest.Portable(func() { gTopk, gApprox, gAbove, gBulk = run() })
				for _, c := range []struct {
					what      string
					got, want []byte
				}{
					{"RowTopK", topk, gTopk},
					{"RowTopKApprox", approx, gApprox},
					{"AboveTheta", above, gAbove},
					{"BulkTopK", bulk, gBulk},
				} {
					if len(c.want) == 0 {
						t.Fatalf("%s %s: empty result", name, c.what)
					}
					if !bytes.Equal(c.got, c.want) {
						t.Errorf("%s %s: dispatched and portable kernels differ (%d vs %d bytes)", name, c.what, len(c.got), len(c.want))
					}
				}
			}
		}
	}
}
