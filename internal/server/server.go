package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"lemp"
	"lemp/internal/obs"
	"lemp/internal/simd"
)

// Config sizes a Server. The zero value is usable: it means 1 shard, no
// batching window, a modest cache, a bounded request-body size, and
// library-default retrieval options except Parallelism, which defaults to
// using all cores across the shard fan-out (a server owns the machine,
// unlike the paper's single-threaded measurements).
type Config struct {
	// Shards is the number of index shards (default 1).
	Shards int
	// Placement selects the shard-placement strategy: "range" (equal-count
	// contiguous, the default), "cost" (contiguous, balanced by estimated
	// scan cost) or "cluster" (directional k-means with per-shard cone
	// pruning of Above-θ queries). When restoring from snapshots, an empty
	// Placement adopts whatever strategy the snapshots were written under;
	// a non-empty one overrides it (forcing a re-placement on load).
	Placement string
	// RebalanceOnLoad re-places the restored probe set under the effective
	// placement strategy before serving, instead of adopting the snapshot
	// layout as-is. Implied when Placement overrides the stored strategy or
	// the snapshot count differs from Shards.
	RebalanceOnLoad bool
	// Quant overrides the snapshots' quantized-screening state when
	// restoring (NewFromSnapshot): lemp.QuantAuto (the zero value) keeps
	// what each snapshot persisted, QuantOn forces screening on (rebuilding
	// missing sidecars from the stored directions), QuantOff drops it.
	// Fresh builds ignore it — set Options.Quantize instead.
	Quant lemp.QuantMode
	// Options configure each shard's index. Options.Parallelism == 0 is
	// replaced by runtime.NumCPU()/Shards (at least 1), so one dispatched
	// batch fanning out across all shards uses about all cores — not
	// Shards× of them. Set Parallelism explicitly to override.
	Options lemp.Options
	// BatchWindow is how long a request waits for others to coalesce with
	// (default 0: no batching). 1–5 ms trades a little latency for a large
	// throughput win under concurrent load.
	BatchWindow time.Duration
	// BatchMax caps the number of query rows per combined batch
	// (default 256).
	BatchMax int
	// BatchMode selects when a forming batch dispatches: "continuous"
	// (the default; dispatch immediately when the key's index is idle and
	// back-to-back as each retrieval completes, with BatchWindow/BatchMax
	// as upper bounds) or "window" (always wait out the full window).
	BatchMode string
	// ShedQueueRows is the admission-control bound on the batcher's queue
	// depth: while at least this many query rows sit in forming batches,
	// new retrieval requests are rejected with 429 before enqueueing
	// (default 16384; negative disables queue-depth shedding).
	ShedQueueRows int
	// ShedInflight is the admission-control bound on concurrently served
	// retrieval/update requests: a request that would push the in-flight
	// count past this is rejected with 429 before any work (default 4096;
	// negative disables in-flight shedding). Shedding early keeps latency
	// bounded under overload instead of letting the queue collapse.
	ShedInflight int
	// CacheEntries is the LRU result-cache capacity in result entries
	// (default 65536; negative disables caching). Entries, not rows: an
	// Above-θ row can hold up to N entries, so a row bound would not
	// bound memory. Each cached row also stores its 25+8R-byte key beyond
	// the counted entries; size the capacity with that overhead in mind.
	CacheEntries int
	// MaxBodyBytes caps the request body size (default 32 MiB; negative
	// disables the limit). A long-lived server must not let one client
	// buffer arbitrary JSON into memory.
	MaxBodyBytes int64
	// MaxUpdateOps caps the number of ops per /v1/update batch (default
	// 4096; negative disables the limit). Updates are applied atomically,
	// so an unbounded batch would buffer unbounded derived state.
	MaxUpdateOps int
	// CompactFraction is the per-shard delta-mass threshold above which an
	// update triggers re-bucketization of that shard (default 0.25;
	// negative disables auto-compaction). Lower values keep pruning tight
	// at the cost of more frequent rebuilds.
	CompactFraction float64
	// RequestTimeout bounds each retrieval request's end-to-end time
	// (default 0: no deadline). The deadline propagates into the sharded
	// scans, which abort mid-bucket when it expires, so a pathological
	// query cannot pin shard workers indefinitely.
	RequestTimeout time.Duration

	// Logger receives the structured access log (Debug), slow-query log
	// (Warn) and lifecycle events (Info). nil disables logging entirely
	// (metrics and tracing stay on).
	Logger *slog.Logger
	// SlowQueryThreshold marks retrieval/update requests slower than this
	// as slow: they are always retained in the trace ring and logged with
	// per-phase timings (default 0: slow-query capture off).
	SlowQueryThreshold time.Duration
	// TraceSampleRate is the probability a fast request's trace is
	// retained for GET /debug/traces (default 0: only slow requests are
	// retained). Recording itself is always on and allocation-free;
	// sampling decides retention at request end (tail sampling).
	TraceSampleRate float64
	// TraceRingSize bounds the retained-trace ring (default 256).
	TraceRingSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler. Off by default: profiles expose internals and
	// cost CPU, so production servers opt in explicitly.
	EnablePprof bool
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Options.Parallelism == 0 {
		c.Options.Parallelism = runtime.NumCPU() / c.Shards
		if c.Options.Parallelism < 1 {
			c.Options.Parallelism = 1
		}
	}
	if c.BatchMax == 0 {
		c.BatchMax = 256
	}
	if c.BatchMode == "" {
		c.BatchMode = BatchModeContinuous.String()
	}
	if c.ShedQueueRows == 0 {
		c.ShedQueueRows = 16384
	}
	if c.ShedInflight == 0 {
		c.ShedInflight = 4096
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 65536
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxUpdateOps == 0 {
		c.MaxUpdateOps = 4096
	}
	if c.CompactFraction == 0 {
		c.CompactFraction = 0.25
	}
	return c
}

// Server answers LEMP retrieval queries and probe updates over HTTP:
//
//	POST /v1/topk        {"queries": [[...], ...], "k": 10}
//	POST /v1/above       {"queries": [[...], ...], "theta": 0.9}
//	POST /v1/update      {"updates": [{"op": "add", "vector": [...]}, ...]}
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 while starting or draining)
//	GET  /stats          cumulative JSON stats
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/traces   retained request traces (tail-sampled)
//	GET  /debug/pprof/   runtime profiles (Config.EnablePprof)
//
// Responses list one result row per submitted query, each row an array of
// {"probe", "value"} objects (global probe ids; top-k rows by decreasing
// value, Above-θ rows by ascending probe id).
type Server struct {
	cfg     Config
	sharded *Sharded
	batcher *Batcher
	cache   *Cache
	start   time.Time

	metrics *serverMetrics
	tracer  *obs.Tracer
	logger  *slog.Logger // nil-safe via logging flag
	logging bool

	// ready flips on once the owner declares the index built/restored and
	// pretuned (New* constructors are synchronous, so it defaults true;
	// cmd/lemp-serve clears it while warming up). draining flips on at
	// BeginDrain and never back. GET /readyz reports 200 only while
	// ready && !draining.
	ready    atomic.Bool
	draining atomic.Bool

	requests  atomic.Uint64 // retrieval requests accepted
	updates   atomic.Uint64 // update batches applied
	batches   atomic.Uint64 // retrieval calls dispatched
	batchRows atomic.Uint64 // query rows across all dispatched calls
}

// New builds a server over the probe matrix: cfg.Shards indexes over
// contiguous probe ranges behind a micro-batcher and a result cache.
func New(probe *lemp.Matrix, cfg Config) (*Server, error) {
	return NewWithIDs(probe, nil, cfg)
}

// NewWithIDs is New with caller-chosen external probe ids (ids[i] names
// probe column i; nil assigns 0..n-1). Rebuilding a server from a mutated
// catalog — e.g. re-sharding a snapshot whose ids are no longer contiguous
// — must use this so results and updates keep addressing the same probes.
func NewWithIDs(probe *lemp.Matrix, ids []int32, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, err := ParseBatchMode(cfg.BatchMode); err != nil {
		return nil, err
	}
	kind := PlaceRange
	if cfg.Placement != "" {
		k, err := ParsePlacement(cfg.Placement)
		if err != nil {
			return nil, err
		}
		kind = k
	}
	sharded, err := NewShardedPlaced(probe, ids, cfg.Shards, cfg.Options, kind)
	if err != nil {
		return nil, err
	}
	return newServer(sharded, cfg), nil
}

// NewFromSnapshot builds a server from one LEMPIDX1 snapshot per shard (in
// shard order, as written by WriteSnapshots), skipping index construction
// entirely: startup is O(read) instead of O(index). cfg.Options contributes
// only Parallelism (structure and algorithm are fixed by the snapshots).
//
// The snapshot layout is adopted as-is by default: snapshot count = shard
// count, stored placement strategy and cones included. Any of cfg.Shards
// set to a different count, cfg.Placement overriding the stored strategy,
// or cfg.RebalanceOnLoad forces one re-placement of the live probe set —
// through the placement interface, whatever the snapshot layout was —
// before the server starts serving.
func NewFromSnapshot(snapshots []io.Reader, cfg Config) (*Server, error) {
	target := cfg.Shards // 0 = keep the snapshot count
	cfg.Shards = len(snapshots)
	cfg = cfg.withDefaults()
	if _, err := ParseBatchMode(cfg.BatchMode); err != nil {
		return nil, err
	}
	sharded, err := NewShardedFromSnapshot(snapshots, lemp.LoadOptions{Parallelism: cfg.Options.Parallelism, Quant: cfg.Quant})
	if err != nil {
		return nil, err
	}
	rebalance := cfg.RebalanceOnLoad
	if cfg.Placement != "" {
		kind, err := ParsePlacement(cfg.Placement)
		if err != nil {
			return nil, err
		}
		if kind != sharded.Placement() {
			// Re-adopt the loaded indexes under the overriding strategy,
			// then re-place: the snapshot partitioning reflects the old one.
			if sharded, err = NewShardedFromIndexesPlaced(sharded.Indexes(), kind, nil); err != nil {
				return nil, err
			}
			rebalance = true
		}
	}
	if target > 0 && target != sharded.NumShards() {
		rebalance = true
	} else {
		target = sharded.NumShards()
	}
	if rebalance {
		// Must precede newServer: per-shard observability is sized to the
		// final shard count.
		if err := sharded.Rebalance(target); err != nil {
			return nil, err
		}
	}
	cfg.Shards = sharded.NumShards()
	return newServer(sharded, cfg), nil
}

// newServer wires the shared serving stack around a shard set.
func newServer(sharded *Sharded, cfg Config) *Server {
	mode, _ := ParseBatchMode(cfg.BatchMode) // validated by the constructors
	s := &Server{
		cfg:     cfg,
		sharded: sharded,
		batcher: NewBatcher(sharded, cfg.BatchWindow, cfg.BatchMax, mode),
		cache:   NewCache(cfg.CacheEntries),
		start:   time.Now(),
		logger:  cfg.Logger,
		logging: cfg.Logger != nil,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.tracer = obs.NewTracer(obs.TracerConfig{SampleRate: cfg.TraceSampleRate, RingSize: cfg.TraceRingSize})
	s.metrics = newServerMetrics(sharded.NumShards())
	s.wireState()
	s.ready.Store(true)
	s.batcher.onDispatch = func(rows, _ int) {
		s.batches.Add(1)
		s.batchRows.Add(uint64(rows))
	}
	return s
}

// Registry exposes the server's metric registry (for embedding the
// families into a larger exposition, and for tests).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Tracer exposes the server's tracer (tests and custom trace sinks).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SetReady flips the readiness probe: GET /readyz answers 200 only while
// ready and not draining. Constructors start ready; an owner doing
// post-construction warm-up (snapshot restore, pretuning) clears it first
// and sets it when serving can begin.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// BeginDrain marks the server draining: /readyz flips to 503 so load
// balancers stop routing here, while in-flight and straggler requests
// still complete. Draining is one-way.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) && s.logging {
		s.logger.Info("draining", "uptime", time.Since(s.start).String())
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Sharded returns the server's shard set (for snapshot persistence and
// introspection).
func (s *Server) Sharded() *Sharded { return s.sharded }

// WriteSnapshots persists every shard index: open(i, n) is called with each
// shard number and the shard count and returns the destination (and any
// error, which aborts the walk). Close is called only after a fully
// successful write; when a write fails mid-stream, a destination
// implementing Abort() is aborted instead of closed, so implementations
// that commit on Close (temp file + rename) can discard the partial output
// rather than publish it. Restart with NewFromSnapshot by supplying the
// same snapshots in the same order. Must not run concurrently with request
// serving — per-call tuning rewrites the state being serialized.
func (s *Server) WriteSnapshots(open func(i, n int) (io.WriteCloser, error)) error {
	return s.WriteSnapshotsWith(open, lemp.SnapshotOptions{})
}

// WriteSnapshotsWith is WriteSnapshots with explicit persistence options —
// e.g. lemp.SnapshotOptions{IncludeLists: true} to carry the built
// sorted-list indexes so a restored server's first batch skips their
// rebuild.
func (s *Server) WriteSnapshotsWith(open func(i, n int) (io.WriteCloser, error), opts lemp.SnapshotOptions) error {
	ixs := s.sharded.Indexes()
	kind, cones := s.sharded.PlacementInfo()
	for i, ix := range ixs {
		shOpts := opts
		if shOpts.Placement == nil && kind != PlaceRange {
			// Persist the placement strategy (and, for cluster shards, the
			// direction cone) so a restore adopts it instead of falling back
			// to range semantics. Range placement writes no PLMT section,
			// keeping those snapshots readable by older builds.
			pl := &lemp.ShardPlacement{Kind: string(kind)}
			if cones != nil {
				pl.Cone = cones[i]
			}
			shOpts.Placement = pl
		}
		w, err := open(i, len(ixs))
		if err != nil {
			return err
		}
		if err := ix.WriteSnapshotWith(w, shOpts); err != nil {
			if a, ok := w.(interface{ Abort() error }); ok {
				a.Abort()
			} else {
				w.Close()
			}
			return fmt.Errorf("server: snapshotting shard %d: %w", i, err)
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("server: snapshotting shard %d: %w", i, err)
		}
	}
	return nil
}

// Handler returns the server's HTTP routes. Every route runs under the
// instrument wrapper (request counters, latency histograms, access log);
// the work endpoints (topk, above, update) additionally carry a request
// trace whose id is returned in the X-Lemp-Trace header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topk", s.instrument("topk", true, s.handleTopK))
	mux.HandleFunc("POST /v1/above", s.instrument("above", true, s.handleAbove))
	mux.HandleFunc("POST /v1/update", s.instrument("update", true, s.handleUpdate))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", false, s.handleReadyz))
	mux.HandleFunc("GET /stats", s.instrument("stats", false, s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.instrument("traces", false, s.handleTraces))
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// reqInfo is the per-request scratch the handlers fill for the instrument
// wrapper: query rows served, cache hits, and the batch's core stats, so
// the access and slow-query logs can report work, not just latency.
type reqInfo struct {
	rows      int
	cacheHits int
	stats     lemp.Stats
}

type reqInfoKey struct{}

// requestInfo extracts the wrapper's reqInfo, or nil when the handler was
// invoked outside instrument (direct tests).
func requestInfo(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// statusWriter captures the response status and byte count for metrics
// and logging. An unset status means no response was written — a request
// canceled by its client — reported as 499 (the de-facto "client closed
// request" code).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// statusClientClosed is reported when a handler finished without writing a
// response — the client disconnected and there was nobody to answer.
const statusClientClosed = 499

func (w *statusWriter) Status() int {
	if w.status == 0 {
		return statusClientClosed
	}
	return w.status
}

// instrument wraps a handler with the observability envelope: request
// counter and latency histogram always; for traced endpoints also the
// in-flight gauge, a request trace (id in X-Lemp-Trace, tail-sampled into
// the /debug/traces ring at completion) and the slow-query log.
func (s *Server) instrument(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var (
			tr   *obs.Trace
			root obs.SpanRef
			info *reqInfo
		)
		if traced {
			s.metrics.inFlight.Inc()
			tr = s.tracer.StartTrace()
			root = tr.Start(endpoint, obs.NoSpan)
			info = &reqInfo{}
			ctx := obs.ContextWithSpan(r.Context(), tr, root)
			ctx = context.WithValue(ctx, reqInfoKey{}, info)
			r = r.WithContext(ctx)
			if id := tr.IDString(); id != "" {
				sw.Header().Set("X-Lemp-Trace", id)
			}
		}
		h(sw, r)
		dur := time.Since(start)
		status := sw.Status()
		s.metrics.observeRequest(endpoint, status, dur)
		var traceID string
		if traced {
			s.metrics.inFlight.Dec()
			tr.End(root)
			traceID = tr.IDString()
			slow := s.cfg.SlowQueryThreshold > 0 && dur >= s.cfg.SlowQueryThreshold
			if slow {
				s.metrics.slowQueries.Inc()
				s.logSlowQuery(r, endpoint, status, dur, tr, info)
			}
			s.tracer.Finish(tr, obs.TraceMeta{Kind: endpoint, Rows: info.rows, Slow: slow})
		}
		if s.logging {
			s.logger.LogAttrs(r.Context(), slog.LevelDebug, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", dur),
				slog.String("trace", traceID),
			)
		}
	}
}

// logSlowQuery emits the structured slow-query record: end-to-end and
// per-phase durations (summed from the trace's span tree), per-shard scan
// times, and the work counters the handler recorded. It runs while the
// trace is still owned by this request, before Finish returns it to the
// pool.
func (s *Server) logSlowQuery(r *http.Request, endpoint string, status int, dur time.Duration, tr *obs.Trace, info *reqInfo) {
	if !s.logging {
		return
	}
	durNS := dur.Nanoseconds()
	var waitNS, seedNS, tuneNS, scanNS, mergeNS int64
	type shardTime struct {
		Shard int   `json:"shard"`
		NS    int64 `json:"ns"`
	}
	var shards []shardTime
	for _, sp := range tr.Spans() {
		end := sp.EndNS
		if end == 0 {
			end = durNS // unclosed span: clamp to request end
		}
		d := end - sp.StartNS
		switch sp.Name {
		case "batch.wait":
			waitNS += d
		case "seed":
			seedNS += d
		case "tune":
			tuneNS += d
		case "scan":
			scanNS += d
		case "merge":
			mergeNS += d
		case "shard":
			shards = append(shards, shardTime{Shard: int(sp.Shard), NS: d})
		}
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query",
		slog.String("trace", tr.IDString()),
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.Duration("duration", dur),
		slog.Int("rows", info.rows),
		slog.Int("cache_hits", info.cacheHits),
		slog.Int64("batch_wait_ns", waitNS),
		slog.Int64("seed_ns", seedNS),
		slog.Int64("tune_ns", tuneNS),
		slog.Int64("scan_ns", scanNS),
		slog.Int64("merge_ns", mergeNS),
		slog.Any("shards", shards),
		slog.Int64("candidates", info.stats.Candidates),
		slog.Int64("results", info.stats.Results),
		slog.Int("tunings", info.stats.Tunings),
		slog.Int("tune_cache_hits", info.stats.TuneCacheHits),
	)
}

// topKRequest is the body of POST /v1/topk.
type topKRequest struct {
	Queries [][]float64 `json:"queries"`
	K       int         `json:"k"`
}

// aboveRequest is the body of POST /v1/above.
type aboveRequest struct {
	Queries [][]float64 `json:"queries"`
	Theta   float64     `json:"theta"`
}

// resultEntry is one retrieved entry: probe id and inner-product value.
type resultEntry struct {
	Probe int     `json:"probe"`
	Value float64 `json:"value"`
}

// queryResponse lists one result row per submitted query.
type queryResponse struct {
	Results [][]resultEntry `json:"results"`
}

// decodeBody decodes the JSON request body into req under the configured
// size limit, writing the error response itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	if err := json.NewDecoder(body).Decode(req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// shedRequest is the admission-control gate, checked before a retrieval
// request's body is even decoded: when the batcher's forming-batch queue
// or the in-flight request count is past the configured bound, the request
// is rejected with 429 and a Retry-After hint instead of being enqueued.
// Shedding at the door keeps the latency of admitted requests bounded
// under overload — the alternative is an unboundedly deep queue where
// every request times out. Returns true when the request was shed.
func (s *Server) shedRequest(w http.ResponseWriter) bool {
	var reason string
	switch {
	case s.cfg.ShedQueueRows > 0 && s.batcher.PendingRows() >= int64(s.cfg.ShedQueueRows):
		reason = fmt.Sprintf("batch queue holds %d rows (limit %d)", s.batcher.PendingRows(), s.cfg.ShedQueueRows)
	case s.cfg.ShedInflight > 0 && int(s.metrics.inFlight.Value()) > s.cfg.ShedInflight:
		// The gauge already counts this request (instrument incremented
		// it), so strictly-greater means the limit was full before us.
		reason = fmt.Sprintf("%d requests in flight (limit %d)", int(s.metrics.inFlight.Value())-1, s.cfg.ShedInflight)
	default:
		return false
	}
	s.metrics.requestsShed.Inc()
	// One batch window is the natural drain quantum; clients should wait
	// at least a second before re-offering load.
	retry := int64(1)
	if w2 := 2 * s.cfg.BatchWindow; w2 > time.Second {
		retry = int64(w2 / time.Second)
	}
	w.Header().Set("Retry-After", fmt.Sprint(retry))
	httpError(w, http.StatusTooManyRequests, "overloaded: %s", reason)
	return true
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if s.shedRequest(w) {
		return
	}
	var req topKRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.K < 1 {
		httpError(w, http.StatusBadRequest, "k must be positive, got %d", req.K)
		return
	}
	s.serve(w, r, batchKey{topk: true, k: req.K}, req.Queries)
}

func (s *Server) handleAbove(w http.ResponseWriter, r *http.Request) {
	if s.shedRequest(w) {
		return
	}
	var req aboveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !finitePositive(req.Theta) {
		httpError(w, http.StatusBadRequest, "theta must be a positive finite number, got %v", req.Theta)
		return
	}
	s.serve(w, r, batchKey{theta: req.Theta}, req.Queries)
}

// serve answers one retrieval request pinned to a single update epoch:
// the epoch snapshot is taken once, cache lookups, the batched retrieval
// and cache inserts all use it, so a response can never mix rows from
// different epochs and a cached row can never outlive the probe set it
// was computed against.
//
// The request context (plus the configured RequestTimeout) flows into the
// sharded retrieval: a client that disconnects mid-batch stops contributing
// to the merged batch context, and when every batch-mate has left the
// underlying shard scans abort mid-bucket. A canceled request never
// publishes rows into the result cache.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, key batchKey, queries [][]float64) {
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	view := s.sharded.CurrentView()
	key.epoch = view.Epoch()
	// A row can never hold more than N entries; clamping here keeps huge k
	// values from sizing merge buffers (and cache keys) off user input.
	if n := view.N(); key.topk && n > 0 && key.k > n {
		key.k = n
	}
	dim := s.sharded.R()
	for i, q := range queries {
		if len(q) != dim {
			httpError(w, http.StatusBadRequest, "query %d has dimension %d, want %d", i, len(q), dim)
			return
		}
		// Non-finite coordinates poison the retrieval pipeline (query
		// lengths and bucket bounds become NaN, silently emptying results)
		// and the cache key; reject them at the door.
		for j, x := range q {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				httpError(w, http.StatusBadRequest, "query %d coordinate %d is %v; coordinates must be finite", i, j, x)
				return
			}
		}
	}
	s.requests.Add(1)
	info := requestInfo(ctx)
	if info != nil {
		info.rows = len(queries)
	}

	// Split rows into cache hits and misses; misses form one submission.
	rows := make([][]lemp.Entry, len(queries))
	var (
		keys     []string
		missData []float64
		missIdx  []int
	)
	if s.cache != nil {
		keys = make([]string, len(queries))
	}
	for i, q := range queries {
		if s.cache != nil {
			keys[i] = cacheKey(key, q)
			if row, ok := s.cache.Get(keys[i]); ok {
				rows[i] = row
				continue
			}
		}
		missData = append(missData, q...)
		missIdx = append(missIdx, i)
	}
	if info != nil {
		info.cacheHits = len(queries) - len(missIdx)
	}
	if len(missIdx) > 0 {
		var (
			fresh [][]lemp.Entry
			st    lemp.Stats
			err   error
		)
		if key.topk {
			fresh, st, err = s.batcher.TopKAt(ctx, view, missData, len(missIdx), key.k)
		} else {
			fresh, st, err = s.batcher.AboveThetaAt(ctx, view, missData, len(missIdx), key.theta)
		}
		if info != nil {
			info.stats = st
		}
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			// The client is gone; there is nobody to answer. Returning
			// here (before any cache insert) guarantees a canceled
			// request never publishes a partial row.
			return
		case errors.Is(err, context.DeadlineExceeded):
			httpError(w, http.StatusServiceUnavailable, "retrieval timed out")
			return
		default:
			httpError(w, http.StatusInternalServerError, "retrieval: %v", err)
			return
		}
		for j, i := range missIdx {
			rows[i] = fresh[j]
			if s.cache != nil {
				s.cache.Put(keys[i], fresh[j])
			}
		}
	}

	resp := queryResponse{Results: make([][]resultEntry, len(rows))}
	for i, row := range rows {
		out := make([]resultEntry, len(row))
		for j, e := range row {
			out[j] = resultEntry{Probe: e.Probe, Value: e.Value}
		}
		resp.Results[i] = out
	}
	writeJSON(w, resp)
}

// healthzResponse is the body of GET /healthz.
type healthzResponse struct {
	Status string `json:"status"`
	Probes int    `json:"probes"`
	Shards int    `json:"shards"`
	Dim    int    `json:"dim"`
	Epoch  uint64 `json:"epoch"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	view := s.sharded.CurrentView()
	writeJSON(w, healthzResponse{
		Status: "ok",
		Probes: view.N(),
		Shards: s.sharded.NumShards(),
		Dim:    s.sharded.R(),
		Epoch:  view.Epoch(),
	})
}

// readyzResponse is the body of GET /readyz.
type readyzResponse struct {
	Status string `json:"status"`
	Probes int    `json:"probes"`
	Epoch  uint64 `json:"epoch"`
}

// handleReadyz is the readiness probe: 200 only while the server is both
// ready (shards built or restored, warm-up done) and not draining.
// /healthz answers liveness — "the process serves HTTP" — and stays 200
// through both warm-up and drain.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	view := s.sharded.CurrentView()
	resp := readyzResponse{Status: "ready", Probes: view.N(), Epoch: view.Epoch()}
	switch {
	case s.draining.Load():
		resp.Status = "draining"
	case !s.ready.Load():
		resp.Status = "starting"
	default:
		writeJSON(w, resp)
		return
	}
	buf, _ := json.Marshal(resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write(append(buf, '\n'))
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// tracesResponse is the body of GET /debug/traces: retained request
// traces, newest first.
type tracesResponse struct {
	Traces []*obs.TraceSnapshot `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, tracesResponse{Traces: s.tracer.Snapshots()})
}

// statsResponse is the body of GET /stats: server counters plus the
// cumulative core retrieval stats across all shards and batches.
type statsResponse struct {
	UptimeSeconds float64   `json:"uptime_seconds"`
	Requests      uint64    `json:"requests"`
	Updates       uint64    `json:"updates"`
	Epoch         uint64    `json:"epoch"`
	LiveProbes    int       `json:"live_probes"`
	Batches       uint64    `json:"batches"`
	BatchRows     uint64    `json:"batch_rows"`
	AvgBatchRows  float64   `json:"avg_batch_rows"`
	BatchMode     string    `json:"batch_mode"`
	Shed          shedInfo  `json:"shed"`
	Placement     string    `json:"placement"`
	Kernels       string    `json:"kernels"` // "avx2" or "generic": the verify and screen kernels in use
	CostSkew      float64   `json:"cost_skew"`
	ShardsScanned uint64    `json:"shards_scanned"`
	ShardsPruned  uint64    `json:"shards_pruned"`
	Cache         cacheInfo `json:"cache"`
	Quant         quantInfo `json:"quant"`
	Core          coreStats `json:"core"`
}

// quantInfo reports quantized-screening effectiveness and footprint:
// candidates discarded before exact verification vs passed through, and
// the sidecar memory across shards (all zero when screening is off).
type quantInfo struct {
	Screened     int64 `json:"screened"`
	Survivors    int64 `json:"survivors"`
	SidecarBytes int   `json:"sidecar_bytes"`
}

type cacheInfo struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Rows    int    `json:"rows"`
	Entries int    `json:"entries"`
}

// shedInfo reports the admission-control configuration and effect: the
// configured bounds (0 = disabled), requests rejected with 429 so far, the
// current queue depth the policy acts on, and the cumulative nanoseconds
// dispatches sat idle while a batch waited (the signal continuous batching
// drives to zero).
type shedInfo struct {
	QueueRowsLimit int    `json:"queue_rows_limit"`
	InflightLimit  int    `json:"inflight_limit"`
	ShedTotal      uint64 `json:"shed_total"`
	QueueRows      int64  `json:"queue_rows"`
	DispatchIdleNS int64  `json:"dispatch_idle_ns"`
}

// coreStats mirrors lemp.Stats with JSON names. Durations come in pairs:
// a machine-stable integer nanosecond field (_ns suffix) and a
// human-readable rendering of the same value. Their semantics follow the
// cumulative Stats aggregation (see lemp.Stats): prep is the one-time
// index preprocessing cost, reported identically by every call, while
// tune and retrieval SUM worker time across shards and calls — four
// shards scanning concurrently for 1ms add 4ms of retrieval time — so
// neither is wall clock.
type coreStats struct {
	Queries        int    `json:"queries"`
	Buckets        int    `json:"buckets"`
	IndexedBuckets int    `json:"indexed_buckets"`
	Candidates     int64  `json:"candidates"`
	Results        int64  `json:"results"`
	BlockVerified  int64  `json:"block_verified"`
	ScalarVerified int64  `json:"scalar_verified"`
	ProcessedPairs int64  `json:"processed_pairs"`
	PrunedPairs    int64  `json:"pruned_pairs"`
	SeedProducts   int64  `json:"seed_products"`
	Tunings        int    `json:"tunings"`
	TuneCacheHits  int    `json:"tune_cache_hits"`
	PrepNS         int64  `json:"prep_ns"`
	Prep           string `json:"prep"`
	TuneNS         int64  `json:"tune_ns"`
	Tune           string `json:"tune"`
	RetrievalNS    int64  `json:"retrieval_ns"`
	Retrieval      string `json:"retrieval"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sharded.CumulativeStats()
	batches := s.batches.Load()
	rows := s.batchRows.Load()
	avg := 0.0
	if batches > 0 {
		avg = float64(rows) / float64(batches)
	}
	view := s.sharded.CurrentView()
	writeJSON(w, statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Updates:       s.updates.Load(),
		Epoch:         view.Epoch(),
		LiveProbes:    view.N(),
		Batches:       batches,
		BatchRows:     rows,
		AvgBatchRows:  avg,
		BatchMode:     s.batcher.Mode().String(),
		Shed: shedInfo{
			QueueRowsLimit: max(0, s.cfg.ShedQueueRows),
			InflightLimit:  max(0, s.cfg.ShedInflight),
			ShedTotal:      uint64(s.metrics.requestsShed.Value()),
			QueueRows:      s.batcher.PendingRows(),
			DispatchIdleNS: int64(s.metrics.dispatchIdle.Value()),
		},
		Placement:     string(s.sharded.Placement()),
		Kernels:       simd.Name(),
		CostSkew:      s.sharded.CostSkew(),
		ShardsScanned: s.sharded.ShardsScanned(),
		ShardsPruned:  s.sharded.ShardsPruned(),
		Cache:         cacheInfo{Hits: s.cache.Hits(), Misses: s.cache.Misses(), Rows: s.cache.Len(), Entries: s.cache.Entries()},
		Quant: quantInfo{
			Screened:     st.QuantScreened,
			Survivors:    st.QuantSurvived,
			SidecarBytes: s.sharded.SidecarBytes(),
		},
		Core: coreStats{
			Queries:        st.Queries,
			Buckets:        st.Buckets,
			IndexedBuckets: st.IndexedBuckets,
			Candidates:     st.Candidates,
			Results:        st.Results,
			BlockVerified:  st.BlockVerified,
			ScalarVerified: st.ScalarVerified,
			ProcessedPairs: st.ProcessedPairs,
			PrunedPairs:    st.PrunedPairs,
			SeedProducts:   st.SeedProducts,
			Tunings:        st.Tunings,
			TuneCacheHits:  st.TuneCacheHits,
			PrepNS:         st.PrepTime.Nanoseconds(),
			Prep:           st.PrepTime.String(),
			TuneNS:         st.TuneTime.Nanoseconds(),
			Tune:           st.TuneTime.String(),
			RetrievalNS:    st.RetrievalTime.Nanoseconds(),
			Retrieval:      st.RetrievalTime.String(),
		},
	})
}

// finitePositive reports whether x is a positive finite float, the valid
// domain for θ. Written as x > 0 rather than !(x <= 0) so NaN is rejected:
// every comparison with NaN is false, so a NaN θ passes an x <= 0 guard and
// would poison bucket-pruning bounds and the result-cache key. +Inf passes
// x > 0 and needs its own check.
func finitePositive(x float64) bool {
	return x > 0 && !math.IsInf(x, 0)
}

// writeJSON marshals before writing so an encoding failure (e.g. a ±Inf
// value from an overflowing inner product) becomes a clean 500 instead of
// a 200 with a truncated body.
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
