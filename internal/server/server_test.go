package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lemp"
	"lemp/internal/data"
)

// smokeMatrices generates the server test fixture: the Smoke profile's
// query and probe matrices.
func smokeMatrices(t testing.TB) (q, p *lemp.Matrix) {
	t.Helper()
	q, p = data.Smoke.Generate()
	return q, p
}

// directIndex builds the unsharded reference index over the same probes.
func directIndex(t testing.TB, p *lemp.Matrix) *lemp.Index {
	t.Helper()
	ix, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// newTestServer builds a Server over the Smoke probes with 4 shards and
// batching enabled, wrapped in an httptest server.
func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *lemp.Matrix, *lemp.Matrix) {
	t.Helper()
	q, p := smokeMatrices(t)
	srv, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, q, p
}

// postJSON posts body to url and decodes the JSON response into out,
// failing the test on any transport or status error.
func postJSON(t testing.TB, url string, body, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d: %v", url, resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// vecs converts matrix columns [lo, hi) into request rows.
func vecs(m *lemp.Matrix, lo, hi int) [][]float64 {
	out := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, m.Vec(i))
	}
	return out
}

const testShards = 4

func testConfig() Config {
	return Config{
		Shards:      testShards,
		Options:     lemp.Options{Parallelism: 1},
		BatchWindow: time.Millisecond,
		BatchMax:    64,
	}
}

// TestTopKMatchesDirect posts query batches to a 4-shard batching server
// and requires responses identical — ids and values — to a direct RowTopK
// run on a single unsharded index.
func TestTopKMatchesDirect(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())
	direct := directIndex(t, p)

	const k, nq = 10, 64
	want, _, err := direct.RowTopK(q.Head(nq), k)
	if err != nil {
		t.Fatal(err)
	}

	var resp queryResponse
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, nq), K: k}, &resp)
	if len(resp.Results) != nq {
		t.Fatalf("got %d rows, want %d", len(resp.Results), nq)
	}
	for i, row := range resp.Results {
		if len(row) != len(want[i]) {
			t.Fatalf("query %d: %d entries, want %d", i, len(row), len(want[i]))
		}
		for j, e := range row {
			if e.Probe != want[i][j].Probe || e.Value != want[i][j].Value {
				t.Fatalf("query %d entry %d: got (%d, %v), want (%d, %v)",
					i, j, e.Probe, e.Value, want[i][j].Probe, want[i][j].Value)
			}
		}
	}
}

// TestAboveMatchesDirect does the same for Above-θ: the sharded result set
// per query must match a direct AboveTheta run exactly.
func TestAboveMatchesDirect(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())
	direct := directIndex(t, p)

	const nq = 64
	theta := 1.5
	entries, _, err := direct.AboveTheta(q.Head(nq), theta)
	if err != nil {
		t.Fatal(err)
	}
	lemp.SortEntries(entries)
	want := make([][]lemp.Entry, nq)
	for _, e := range entries {
		want[e.Query] = append(want[e.Query], e)
	}

	var resp queryResponse
	postJSON(t, ts.URL+"/v1/above", aboveRequest{Queries: vecs(q, 0, nq), Theta: theta}, &resp)
	if len(resp.Results) != nq {
		t.Fatalf("got %d rows, want %d", len(resp.Results), nq)
	}
	total := 0
	for i, row := range resp.Results {
		if len(row) != len(want[i]) {
			t.Fatalf("query %d: %d entries, want %d", i, len(row), len(want[i]))
		}
		for j, e := range row {
			if e.Probe != want[i][j].Probe || e.Value != want[i][j].Value {
				t.Fatalf("query %d entry %d: got (%d, %v), want (%d, %v)",
					i, j, e.Probe, e.Value, want[i][j].Probe, want[i][j].Value)
			}
		}
		total += len(row)
	}
	if total == 0 {
		t.Fatal("θ too high: result set empty, test is vacuous")
	}
}

// TestConcurrencySmoke fires 200 in-flight single-query requests at a
// batching server and checks every response against the direct index.
func TestConcurrencySmoke(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())
	direct := directIndex(t, p)

	const k, inflight = 5, 200
	want, _, err := direct.RowTopK(q.Head(inflight), k)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(topKRequest{Queries: [][]float64{q.Vec(i)}, K: k})
			resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d", i, resp.StatusCode)
				return
			}
			var out queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if len(out.Results) != 1 || len(out.Results[0]) != len(want[i]) {
				errs <- fmt.Errorf("query %d: bad shape %v", i, out.Results)
				return
			}
			for j, e := range out.Results[0] {
				if e.Probe != want[i][j].Probe || e.Value != want[i][j].Value {
					errs <- fmt.Errorf("query %d entry %d: got (%d, %v), want (%d, %v)",
						i, j, e.Probe, e.Value, want[i][j].Probe, want[i][j].Value)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheHitsSkipRetrieval repeats a request and checks via /stats that
// the second hit the cache and dispatched no retrieval.
func TestCacheHitsSkipRetrieval(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 4096
	ts, q, _ := newTestServer(t, cfg)

	req := topKRequest{Queries: vecs(q, 0, 8), K: 3}
	var first, second queryResponse
	postJSON(t, ts.URL+"/v1/topk", req, &first)

	var st1 statsResponse
	getJSON(t, ts.URL+"/stats", &st1)
	if st1.Batches == 0 || st1.Cache.Misses != 8 {
		t.Fatalf("after first request: batches=%d misses=%d", st1.Batches, st1.Cache.Misses)
	}

	postJSON(t, ts.URL+"/v1/topk", req, &second)
	var st2 statsResponse
	getJSON(t, ts.URL+"/stats", &st2)
	if st2.Batches != st1.Batches || st2.BatchRows != st1.BatchRows {
		t.Errorf("cached repeat dispatched retrieval: batches %d→%d rows %d→%d",
			st1.Batches, st2.Batches, st1.BatchRows, st2.BatchRows)
	}
	if st2.Cache.Hits != 8 {
		t.Errorf("cache hits = %d, want 8", st2.Cache.Hits)
	}
	if len(second.Results) != len(first.Results) {
		t.Fatalf("cached response shape differs")
	}
	for i := range first.Results {
		for j := range first.Results[i] {
			if first.Results[i][j] != second.Results[i][j] {
				t.Fatalf("cached row %d differs", i)
			}
		}
	}

	// A different k is a different cache key.
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, 1), K: 4}, &first)
	var st3 statsResponse
	getJSON(t, ts.URL+"/stats", &st3)
	if st3.Cache.Misses != st2.Cache.Misses+1 {
		t.Errorf("changed k should miss: misses %d→%d", st2.Cache.Misses, st3.Cache.Misses)
	}
}

// TestHealthzAndStats checks the observability endpoints.
func TestHealthzAndStats(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())

	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Probes != p.N() || hz.Shards != testShards || hz.Dim != p.R() {
		t.Fatalf("healthz: %+v", hz)
	}

	var resp queryResponse
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, 4), K: 2}, &resp)
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests != 1 || st.Batches == 0 || st.BatchRows != 4 {
		t.Errorf("stats counters: %+v", st)
	}
	if st.Core.Queries == 0 || st.Core.Results == 0 || st.Core.Buckets == 0 {
		t.Errorf("core stats not accumulated: %+v", st.Core)
	}
	if st.Kernels != "avx2" && st.Kernels != "generic" {
		t.Errorf("stats kernels = %q, want avx2 or generic", st.Kernels)
	}
}

// TestBadRequests checks input validation.
func TestBadRequests(t *testing.T) {
	ts, q, _ := newTestServer(t, testConfig())
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/topk", topKRequest{Queries: vecs(q, 0, 1), K: 0}},
		{"/v1/topk", topKRequest{Queries: [][]float64{{1, 2}}, K: 3}},
		{"/v1/above", aboveRequest{Queries: vecs(q, 0, 1), Theta: 0}},
		{"/v1/above", aboveRequest{Queries: [][]float64{{1}}, Theta: 1}},
	} {
		buf, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %v: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
}

// TestRequestGuards checks that oversized k values are clamped rather than
// sizing buffers off user input, and oversized bodies are rejected early.
func TestRequestGuards(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 4096
	ts, q, p := newTestServer(t, cfg)

	// k far beyond the probe count returns every probe, ranked.
	var resp queryResponse
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, 1), K: 1 << 40}, &resp)
	if len(resp.Results) != 1 || len(resp.Results[0]) != p.N() {
		t.Fatalf("huge k: got %d entries, want %d", len(resp.Results[0]), p.N())
	}

	// A body over the limit is rejected with 413.
	big := topKRequest{Queries: vecs(q, 0, 64), K: 3}
	buf, _ := json.Marshal(big)
	if len(buf) <= 4096 {
		t.Fatalf("test body too small (%d bytes) to exercise the limit", len(buf))
	}
	r, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", r.StatusCode)
	}

	// A query whose inner products overflow to ±Inf cannot be encoded as
	// JSON; the server must answer 500, not 200 with a truncated body.
	huge := make([]float64, p.R())
	for i := range huge {
		huge[i] = 1e308
	}
	buf, _ = json.Marshal(topKRequest{Queries: [][]float64{huge}, K: 1})
	r, err = http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("overflowing query: status %d, want 500", r.StatusCode)
	}
}

// getJSON fetches url and decodes the response into out.
func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
