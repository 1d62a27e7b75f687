package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lemp"
	"lemp/internal/server"
)

// Self-tests of the benchmark: every workload runs at a tiny size and
// emits every catalogued metric, and each output checker rejects a
// deliberately corrupted result.

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.6, trace: trace, workdir: t.TempDir(), root: "..", tiny: true}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				res, err := execute(tinyConfig(t, name, trace), &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				var want []string
				if trace {
					for _, m := range perLayer {
						want = append(want, m.name)
					}
				} else {
					for _, m := range endToEnd {
						want = append(want, m.name)
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.name, res.Metrics[m.name].Value)
						}
					}
				}
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
			})
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := newMixedInputs(3, true), newMixedInputs(3, true)
	if !reflect.DeepEqual(a.probes.Data(), b.probes.Data()) || !reflect.DeepEqual(a.queries.Data(), b.queries.Data()) ||
		a.theta != b.theta || !reflect.DeepEqual(a.perm, b.perm) {
		t.Error("serve-mixed inputs differ for one seed")
	}
	ga, gb := a.gen(3, "open", a.perm, 0, 1, false), b.gen(3, "open", b.perm, 0, 1, false)
	for i := 0; i < 200; i++ {
		if oa, ob := ga.next(), gb.next(); !bytes.Equal(oa.body, ob.body) {
			t.Fatalf("op %d differs for one seed", i)
		}
	}
	x := denseVectors(stream(5, "catalogue"), 50, 8, 1.5)
	y := denseVectors(stream(5, "catalogue"), 50, 8, 1.5)
	z := denseVectors(stream(6, "catalogue"), 50, 8, 1.5)
	if !reflect.DeepEqual(x.Data(), y.Data()) || reflect.DeepEqual(x.Data(), z.Data()) {
		t.Error("dense inputs are not a function of the seed")
	}
}

// nextUlp corrupts a value by one unit in the last place: the smallest
// change a like-for-like check must still catch.
func nextUlp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

func TestTopKCheckerRejectsCorruption(t *testing.T) {
	probes := denseVectors(stream(1, "catalogue"), 300, 8, 0.7)
	ix, err := lemp.New(probes, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := denseVectors(stream(1, "q"), 3, 8, 0.4)
	want, err := ix.Retrieve(context.Background(), q, lemp.TopK(topkK))
	if err != nil {
		t.Fatal(err)
	}
	body := func(row []lemp.Entry) []byte {
		var resp queryResponse
		resp.Results = make([][]struct {
			Probe int     `json:"probe"`
			Value float64 `json:"value"`
		}, 1)
		for _, e := range row {
			resp.Results[0] = append(resp.Results[0], struct {
				Probe int     `json:"probe"`
				Value float64 `json:"value"`
			}{e.Probe, e.Value})
		}
		b, _ := json.Marshal(resp)
		return b
	}
	var checks []topkCheck
	for i := 0; i < q.N(); i++ {
		row := append([]lemp.Entry(nil), want.TopK[i]...)
		if i == 1 {
			row[3].Value = nextUlp(row[3].Value)
		}
		if i == 2 {
			row[0].Probe = (row[0].Probe + 1) % probes.N()
		}
		checks = append(checks, topkCheck{q: q.Vec(i), body: body(row)})
	}
	r := &run{out: io.Discard}
	if err := r.checkTopK(ix, checks); err != nil {
		t.Fatal(err)
	}
	if r.checked != 3 || r.mismatch != 2 {
		t.Errorf("checked %d, mismatched %d; want 3 checked, 2 mismatched", r.checked, r.mismatch)
	}
}

func TestBulkCheckerRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	probes := denseVectors(stream(1, "catalogue"), 400, 8, 1.5)
	queries := denseVectors(stream(1, "queries"), 300, 8, 2)
	ix, err := lemp.New(probes, lemp.Options{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "t.lempbrs")
	if _, err := ix.BulkTopK(context.Background(), lemp.BulkQueries(queries), out, topkK, lemp.BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	r := &run{out: io.Discard}
	if err := r.checkBulk(ix, queries, out); err != nil {
		t.Fatal(err)
	}
	if r.checked == 0 || r.mismatch != 0 {
		t.Fatalf("intact table: checked %d, mismatched %d", r.checked, r.mismatch)
	}

	// Flip a bit every 97 bytes past the header, so sampled rows are hit:
	// either the reader rejects the file or a sampled row no longer
	// matches.
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 64; i < len(b); i += 97 {
		b[i] ^= 1
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r = &run{out: io.Discard}
	if err := r.checkBulk(ix, queries, out); err != nil {
		t.Fatal(err)
	}
	if r.mismatch == 0 {
		t.Error("corrupted table passed the check")
	}
}

func TestMixedCheckerRejectsCorruption(t *testing.T) {
	in := newMixedInputs(2, true)
	cfg := serveDefaults()
	cfg.Placement = "cluster"
	cfg.Options.Quantize = true
	srv, err := server.New(in.probes.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := startHarness(srv, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	want := map[int32][]float64{}
	for i := 0; i < in.probes.N(); i++ {
		want[int32(i)] = in.probes.Vec(i)
	}
	r := &run{out: io.Discard}
	if err := r.checkMixed(h, in, want); err != nil {
		t.Fatal(err)
	}
	if r.checked == 0 || r.mismatch != 0 {
		t.Fatalf("intact server: checked %d, mismatched %d", r.checked, r.mismatch)
	}

	// A probe the server does not hold in that form.
	v := append([]float64(nil), want[5]...)
	v[0] = nextUlp(v[0])
	want[5] = v
	r = &run{out: io.Discard}
	if err := r.checkMixed(h, in, want); err != nil {
		t.Fatal(err)
	}
	if r.mismatch != 1 {
		t.Errorf("corrupted probe set: %d mismatches, want 1", r.mismatch)
	}
}

func TestRowComparisonIsExact(t *testing.T) {
	a := []lemp.Entry{{Probe: 1, Value: 2.5}, {Probe: 4, Value: 1}}
	if !sameRow(a, []lemp.Entry{{Probe: 1, Value: 2.5}, {Probe: 4, Value: 1}}) {
		t.Error("equal rows differ")
	}
	for _, b := range [][]lemp.Entry{
		{{Probe: 1, Value: 2.5}},
		{{Probe: 1, Value: 2.5}, {Probe: 5, Value: 1}},
		{{Probe: 1, Value: nextUlp(2.5)}, {Probe: 4, Value: 1}},
	} {
		if sameRow(a, b) {
			t.Errorf("%v matched %v", b, a)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d catalogued", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, c)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d catalogued", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, c)
		}
	}
}
