package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lemp"
	"lemp/internal/server"
)

// The serving harness: a server behind a real loopback listener and one
// load-generating client with at most nproc (2) connections.

// conns is the number of client connections and load goroutines.
var conns = min(2, runtime.NumCPU())

// serveDefaults is lemp-serve's configuration with its default flags
// (logging off: the defaults log nothing per request).
func serveDefaults() server.Config {
	return server.Config{
		Shards:             4,
		Placement:          "range",
		Options:            lemp.Options{Algorithm: lemp.AlgorithmLI},
		BatchWindow:        2 * time.Millisecond,
		BatchMax:           256,
		BatchMode:          "continuous",
		ShedQueueRows:      16384,
		ShedInflight:       4096,
		CacheEntries:       65536,
		MaxUpdateOps:       4096,
		CompactFraction:    0.25,
		SlowQueryThreshold: 500 * time.Millisecond,
		TraceSampleRate:    0.01,
		TraceRingSize:      256,
	}
}

// tracedConfig makes cfg retain every trace, in a ring the drainer
// empties faster than it wraps.
func tracedConfig(cfg server.Config) server.Config {
	cfg.TraceSampleRate = 1
	cfg.TraceRingSize = 8192
	return cfg
}

// seqHeader carries a request number from the client to the wrapping
// handler of a traced pass, so the client can subtract server time from
// its round trip.
const seqHeader = "X-Perfbench-Seq"

type harness struct {
	srv    *server.Server
	base   string
	hs     *http.Server
	served chan error
	client *http.Client

	traced  bool
	seq     atomic.Uint64
	mu      sync.Mutex
	handled map[uint64]time.Duration // request number -> ServeHTTP time
}

// startHarness serves srv.Handler() on a loopback port and waits until
// /readyz answers 200.
func startHarness(srv *server.Server, traced bool) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		srv:     srv,
		base:    "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		traced:  traced,
		handled: map[uint64]time.Duration{},
	}
	inner := srv.Handler()
	h.hs = &http.Server{
		Handler:           h.wrap(inner),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	h.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true},
		Timeout:   time.Minute,
	}
	for {
		resp, err := h.client.Get(h.base + "/readyz")
		if err != nil {
			h.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return h, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// wrap times ServeHTTP of numbered requests (traced passes only).
func (h *harness) wrap(inner http.Handler) http.Handler {
	if !h.traced {
		return inner
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		d := time.Since(start)
		if id, err := strconv.ParseUint(r.Header.Get(seqHeader), 10, 64); err == nil {
			h.mu.Lock()
			h.handled[id] = d
			h.mu.Unlock()
		}
	})
}

// close stops the listener and waits for the serving goroutine to end.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.served
	h.client.CloseIdleConnections()
}

// reply is one completed request.
type reply struct {
	status  int
	body    []byte
	rtt     time.Duration // client round trip
	handler time.Duration // wrapped ServeHTTP time (traced passes; 0 if unknown)
	err     error
}

func (rp reply) ok() bool { return rp.err == nil && rp.status == http.StatusOK }

func (h *harness) post(path string, body []byte) reply {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	var id uint64
	if h.traced {
		id = h.seq.Add(1)
		req.Header.Set(seqHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{err: err, rtt: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{status: resp.StatusCode, body: b, rtt: time.Since(start), err: err}
	if h.traced {
		rp.handler = h.takeHandled(id)
	}
	return rp
}

// takeHandled returns the ServeHTTP time of request id. The wrapper
// stores it before net/http flushes a small response, so it is normally
// there already; a large response may overtake it briefly.
func (h *harness) takeHandled(id uint64) time.Duration {
	deadline := time.Now().Add(5 * time.Millisecond)
	for {
		h.mu.Lock()
		d, ok := h.handled[id]
		delete(h.handled, id)
		h.mu.Unlock()
		if ok || time.Now().After(deadline) {
			return d
		}
		waitUntil(time.Now().Add(20 * time.Microsecond))
	}
}

func (h *harness) getJSON(path string, v any) error {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Operations and load generation.

type opKind uint8

const (
	opTopK opKind = iota
	opAbove
	opUpdate
	numKinds
)

var kindPath = [numKinds]string{"/v1/topk", "/v1/above", "/v1/update"}
var kindName = [numKinds]string{"topk", "above", "update"}

// op is one prepared request: its body and the query or probe vector in
// it, kept for the output checks.
type op struct {
	kind opKind
	body []byte
	q    []float64
	verb string // update ops: add, update or remove
	id   int32  // update ops: the probe id
}

// sample is one measured request.
type sample struct {
	kind    opKind
	latency time.Duration // open loop: from due time; closed loop: round trip
	late    time.Duration // open loop: send time minus due time
	ok      bool
	rtt     time.Duration
	handler time.Duration
}

func newSample(o op, rp reply, latency, late time.Duration) sample {
	return sample{kind: o.kind, latency: latency, late: late, ok: rp.ok(), rtt: rp.rtt, handler: rp.handler}
}

// openLoop sends ops at a fixed rate: op i is due at start + i/rate. Each
// free connection takes the next op and sends it at its due time, or at
// once when late. Latency runs from the due time, so a stall also counts
// against the requests queued behind it. done sees every reply, from
// several goroutines.
func (h *harness) openLoop(ops []op, rate float64, done func(i int, o op, rp reply)) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	interval := float64(time.Second) / rate
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				waitUntil(due)
				sent := time.Now()
				rp := h.post(kindPath[ops[i].kind], ops[i].body)
				samples[i] = newSample(ops[i], rp, time.Since(due), sent.Sub(due))
				if done != nil {
					done(i, ops[i], rp)
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// phase is the outcome of a closed loop.
type phase struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration // process CPU time (server and client)
}

// perCPUSecond is the phase's successful requests per CPU-second.
func (p phase) perCPUSecond() float64 { return ratio(float64(succeeded(p.samples)), p.cpu.Seconds()) }

// perSecond is the phase's successful requests per second of wall time.
func (p phase) perSecond() float64 { return ratio(float64(succeeded(p.samples)), p.wall.Seconds()) }

// waitUntil returns at t. A Go timer wakes up to a millisecond late, and
// spinning until t would keep a processor from polling the network, so
// the sender blocks in nanosleep(2), whose wake-up is tens of µs late.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}

// closedLoop runs conns clients back to back for d: client c sends
// next(c, j) as its j-th request as soon as its previous one returned.
func (h *harness) closedLoop(d time.Duration, next func(c, j int) op, done func(c, j int, o op, rp reply)) phase {
	per := make([][]sample, conns)
	cpu0 := cpuTime()
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; time.Now().Before(stop); j++ {
				o := next(c, j)
				rp := h.post(kindPath[o.kind], o.body)
				per[c] = append(per[c], newSample(o, rp, rp.rtt, 0))
				if done != nil {
					done(c, j, o, rp)
				}
			}
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// count adds samples to the run's attempted and failed totals.
func (r *run) count(samples []sample) {
	for _, s := range samples {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
}

// serveE2E sets the end-to-end metrics of an untraced serving pass and
// prints the per-kind latencies and the wall-clock saturated rate.
func (r *run) serveE2E(setup []float64, heap float64, open []sample, closed phase) {
	r.section("end-to-end (untraced pass)")
	topk := latencies(open, opTopK)
	r.setE2E("setup_s", median(setup), len(setup))
	r.setE2E("heap_mb", heap, 1)
	r.setE2E("p50_ms", percentile(topk, 0.5), len(topk))
	r.setE2E("ops_per_cpu_s", closed.perCPUSecond(), succeeded(closed.samples))
	for k := opTopK; k < numKinds; k++ {
		if l := latencies(open, k); len(l) > 0 {
			for _, p := range []float64{50, 90, 99} {
				r.note(fmt.Sprintf("%s_p%.0f_ms", kindName[k], p), percentile(l, p/100), "ms", len(l))
			}
		}
	}
	var late []float64
	for _, s := range open {
		late = append(late, ms(s.late))
	}
	for _, p := range []float64{50, 90, 99} {
		r.note(fmt.Sprintf("loadgen_late_p%.0f_ms", p), percentile(late, p/100), "ms", len(late))
	}
	r.note("saturated_qps", closed.perSecond(), "1/s", len(closed.samples))
	r.note("saturated_cpu_util", ratio(closed.cpu.Seconds(), closed.wall.Seconds()), "cpus", 0)
}

// latencies returns the latencies in ms of the successful samples of a
// kind. Failed requests are left out of the distribution and counted in
// fail_ratio instead.
func latencies(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind && s.ok {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func succeeded(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

// Request bodies.

// appendVector appends v as a JSON array with every digit (round-trips
// exactly).
func appendVector(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

func topKBody(q []float64, k int) []byte {
	b := append([]byte(`{"queries":[`), appendVector(nil, q)...)
	return append(b, fmt.Sprintf(`],"k":%d}`, k)...)
}

func aboveBody(q []float64, theta float64) []byte {
	b := append([]byte(`{"queries":[`), appendVector(nil, q)...)
	b = append(b, `],"theta":`...)
	b = strconv.AppendFloat(b, theta, 'g', -1, 64)
	return append(b, '}')
}

// updateBody is one single-op /v1/update batch; vec is nil for remove.
func updateBody(kind string, id int32, vec []float64) []byte {
	b := fmt.Appendf(nil, `{"updates":[{"op":%q,"id":%d`, kind, id)
	if vec != nil {
		b = append(b, `,"vector":`...)
		b = appendVector(b, vec)
	}
	return append(b, `}]}`...)
}

// queryResponse is the body of /v1/topk and /v1/above.
type queryResponse struct {
	Results [][]struct {
		Probe int     `json:"probe"`
		Value float64 `json:"value"`
	} `json:"results"`
}

// rowOf decodes the single result row of a one-query response.
func rowOf(body []byte) ([]lemp.Entry, error) {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("%d result rows for one query", len(resp.Results))
	}
	row := make([]lemp.Entry, len(resp.Results[0]))
	for i, e := range resp.Results[0] {
		row[i] = lemp.Entry{Probe: e.Probe, Value: e.Value}
	}
	return row, nil
}
