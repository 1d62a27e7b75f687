package main

import (
	"sync"
	"time"

	"lemp/internal/obs"
	"lemp/internal/server"
)

// Per-layer numbers of a traced serving pass. They come from the spans
// the server records (read through Server.Tracer() with every trace
// retained), from the benchmark's own round-trip and ServeHTTP timings,
// and from counter deltas of /stats and the shard set.

// drainer empties the server's retained-trace ring into a spanAgg while
// traffic runs, so nothing is lost to the ring wrapping.
type drainer struct {
	tracer *obs.Tracer
	agg    *spanAgg
	seen   map[*obs.TraceSnapshot]bool
	base   uint64 // retained traces before the measured traffic
	taken  uint64
	stop   chan struct{}
	wg     sync.WaitGroup
}

// startDrain skips the traces already retained (warm-up) and aggregates
// every later one until finish.
func startDrain(t *obs.Tracer) *drainer {
	d := &drainer{tracer: t, agg: newSpanAgg(), seen: map[*obs.TraceSnapshot]bool{}, stop: make(chan struct{})}
	d.base = t.Retained()
	for _, s := range t.Snapshots() {
		d.seen[s] = true
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
				d.poll()
			}
		}
	}()
	return d
}

// poll aggregates the ring's new entries. The ring holds pointers until
// overwritten, so a pointer not seen at the last poll is new.
func (d *drainer) poll() {
	now := map[*obs.TraceSnapshot]bool{}
	for _, s := range d.tracer.Snapshots() {
		now[s] = true
		if !d.seen[s] {
			d.agg.add(s)
			d.taken++
		}
	}
	d.seen = now
}

// finish stops draining and returns the aggregate and the number of
// traces the ring dropped before they were read.
func (d *drainer) finish() (*spanAgg, uint64) {
	close(d.stop)
	d.wg.Wait()
	d.poll()
	lost := d.tracer.Retained() - d.base - d.taken
	return d.agg, lost
}

// spanAgg accumulates span durations by layer. The spans of one shared
// batch retrieval are adopted into the trace of every request in the
// batch; they are counted once, keyed by their absolute start.
type spanAgg struct {
	httpSelf  []float64 // µs: endpoint root minus batch wait and retrieve
	batchWait []float64 // µs
	updateUS  []float64 // µs: update root spans
	shardUS   []float64 // µs: one per shard scan
	skew      []float64 // slowest over mean shard span, per batch
	mergeUS   []float64 // µs
	tuneNS    int64
	scanNS    int64
	batches   map[int64]bool
}

func newSpanAgg() *spanAgg { return &spanAgg{batches: map[int64]bool{}} }

func us(ns int64) float64 { return float64(ns) / 1e3 }

func (a *spanAgg) add(t *obs.TraceSnapshot) {
	if len(t.Spans) == 0 {
		return
	}
	root := t.Spans[0]
	children := map[int32][]obs.SpanSnapshot{}
	for _, sp := range t.Spans[1:] {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	switch root.Name {
	case "update":
		a.updateUS = append(a.updateUS, us(root.DurationNS))
	case "topk", "above":
		self := root.DurationNS
		for _, sp := range children[root.ID] {
			switch sp.Name {
			case "batch.wait":
				self -= sp.DurationNS
				a.batchWait = append(a.batchWait, us(sp.DurationNS))
			case "batch.retrieve":
				self -= sp.DurationNS
				a.addBatch(t, children, sp.ID)
			}
		}
		a.httpSelf = append(a.httpSelf, us(self))
	}
}

// addBatch counts the shard, merge, tune and scan spans under one
// batch.retrieve span, unless a batch-mate's trace already did.
func (a *spanAgg) addBatch(t *obs.TraceSnapshot, children map[int32][]obs.SpanSnapshot, retrieve int32) {
	kids := children[retrieve]
	if len(kids) == 0 {
		return
	}
	key := t.Start.UnixNano() + kids[0].StartNS
	for _, sp := range kids[1:] {
		key = min(key, t.Start.UnixNano()+sp.StartNS)
	}
	if a.batches[key] {
		return
	}
	a.batches[key] = true
	var shards []float64
	for _, sp := range kids {
		switch sp.Name {
		case "shard":
			shards = append(shards, us(sp.DurationNS))
			for _, g := range children[sp.ID] {
				switch g.Name {
				case "tune":
					a.tuneNS += g.DurationNS
				case "scan":
					a.scanNS += g.DurationNS
				}
			}
		case "merge":
			a.mergeUS = append(a.mergeUS, us(sp.DurationNS))
		}
	}
	if len(shards) > 0 {
		a.shardUS = append(a.shardUS, shards...)
		slowest := 0.0
		for _, s := range shards {
			slowest = max(slowest, s)
		}
		if m := mean(shards); m > 0 {
			a.skew = append(a.skew, slowest/m)
		}
	}
}

// statsDoc is the part of GET /stats the benchmark reads.
type statsDoc struct {
	Batches       uint64 `json:"batches"`
	BatchRows     uint64 `json:"batch_rows"`
	ShardsScanned uint64 `json:"shards_scanned"`
	ShardsPruned  uint64 `json:"shards_pruned"`
	Shed          struct {
		ShedTotal uint64 `json:"shed_total"`
	} `json:"shed"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Quant struct {
		Screened  int64 `json:"screened"`
		Survivors int64 `json:"survivors"`
	} `json:"quant"`
	Core struct {
		Queries        int64 `json:"queries"`
		Candidates     int64 `json:"candidates"`
		Results        int64 `json:"results"`
		BlockVerified  int64 `json:"block_verified"`
		ScalarVerified int64 `json:"scalar_verified"`
		ProcessedPairs int64 `json:"processed_pairs"`
		PrunedPairs    int64 `json:"pruned_pairs"`
		Tunings        int64 `json:"tunings"`
		TuneCacheHits  int64 `json:"tune_cache_hits"`
	} `json:"core"`
}

// counters is a snapshot of the server counters a traced pass diffs.
type counters struct {
	stats       statsDoc
	compactions uint64
}

func readCounters(h *harness) (counters, error) {
	var c counters
	err := h.getJSON("/stats", &c.stats)
	c.compactions = h.srv.Sharded().Compactions()
	return c, err
}

// tracedServe is what a traced serving pass measured.
type tracedServe struct {
	agg           *spanAgg
	lost          uint64
	before, after counters
	samples       []sample // open and closed loop
	openSamples   []sample
	wall          time.Duration // measured traffic time
}

// serverLayers sets the server.*, core.* and quant.* per-layer metrics of
// a traced serving pass over srv.
func (r *run) serverLayers(srv *server.Server, t tracedServe) {
	a, s0, s1 := t.agg, t.before.stats, t.after.stats
	if t.lost > 0 {
		r.section("warning: %d traces were dropped before they were read", t.lost)
	}
	var wire []float64
	for _, s := range t.samples {
		if s.ok && s.handler > 0 {
			wire = append(wire, float64(s.rtt-s.handler)/1e3)
		}
	}
	secs := t.wall.Seconds()
	d := func(a, b int64) float64 { return float64(b - a) }
	du := func(a, b uint64) float64 { return float64(b - a) }

	r.setLayer("server.http.self_us", mean(a.httpSelf))
	r.setLayer("server.http.wire_us", mean(wire))
	r.setLayer("server.batcher.wait_us", mean(a.batchWait))
	r.setLayer("server.batcher.rows_per_batch", ratio(du(s0.BatchRows, s1.BatchRows), du(s0.Batches, s1.Batches)))
	r.setLayer("server.admission.shed_ratio", ratio(du(s0.Shed.ShedTotal, s1.Shed.ShedTotal), float64(len(t.samples))))
	r.setLayer("server.cache.hit_ratio", ratio(du(s0.Cache.Hits, s1.Cache.Hits), du(s0.Cache.Hits, s1.Cache.Hits)+du(s0.Cache.Misses, s1.Cache.Misses)))
	r.setLayer("server.sharded.shard_us", mean(a.shardUS))
	r.setLayer("server.sharded.shard_skew", mean(a.skew))
	r.setLayer("server.sharded.merge_us", mean(a.mergeUS))
	pruned := du(s0.ShardsPruned, s1.ShardsPruned)
	r.setLayer("server.sharded.pruned_ratio", ratio(pruned, pruned+du(s0.ShardsScanned, s1.ShardsScanned)))
	r.setLayer("server.update.self_us", mean(a.updateUS))
	r.setLayer("server.update.compactions", du(t.before.compactions, t.after.compactions))

	c0, c1 := s0.Core, s1.Core
	tunings, hits := d(c0.Tunings, c1.Tunings), d(c0.TuneCacheHits, c1.TuneCacheHits)
	r.setLayer("core.tune.busy_ms", ratio(float64(a.tuneNS)/1e6, secs))
	r.setLayer("core.tune.runs", tunings)
	r.setLayer("core.tune.cache_hit_ratio", ratio(hits, tunings+hits))
	r.setLayer("core.scan.busy_ms", ratio(float64(a.scanNS)/1e6, secs))
	r.setLayer("core.scan.candidates_per_query", ratio(d(c0.Candidates, c1.Candidates), d(c0.Queries, c1.Queries)))
	pp := d(c0.PrunedPairs, c1.PrunedPairs)
	r.setLayer("core.scan.pair_prune_ratio", ratio(pp, pp+d(c0.ProcessedPairs, c1.ProcessedPairs)))
	r.setLayer("core.verify.results_per_candidate", ratio(d(c0.Results, c1.Results), d(c0.Candidates, c1.Candidates)))
	blk := d(c0.BlockVerified, c1.BlockVerified)
	r.setLayer("core.verify.block_ratio", ratio(blk, blk+d(c0.ScalarVerified, c1.ScalarVerified)))
	scr := d(s0.Quant.Screened, s1.Quant.Screened)
	r.setLayer("quant.screen_ratio", ratio(scr, scr+d(s0.Quant.Survivors, s1.Quant.Survivors)))

	var mass float64
	var buckets int
	ixs := srv.Sharded().Indexes()
	for _, ix := range ixs {
		mass += ix.DeltaMass()
		buckets += ix.NumBuckets()
	}
	r.setLayer("core.delta.mass", mass/float64(len(ixs)))
	r.setLayer("core.buckets", float64(buckets))
	r.setLayer("quant.sidecar_mb", mb(float64(srv.Sharded().SidecarBytes())))

	var late []float64
	for _, s := range t.openSamples {
		late = append(late, ms(s.late))
	}
	r.setLayer("loadgen.late_p99_ms", percentile(late, 0.99))
	r.note("trace.spans.requests", float64(len(a.httpSelf)+len(a.updateUS)), "count", 0)
	r.note("trace.spans.batches", float64(len(a.batches)), "count", 0)
}
