package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lemp"
	"lemp/internal/server"
)

// serve-mixed: a server restored from pretuned snapshots over a clustered
// catalogue with Zipf lengths, cluster placement and quantized screening,
// under open-loop traffic that mixes /v1/topk, /v1/above and ~10%
// single-op /v1/update. Read queries repeat, Zipf-distributed over a
// fixed set, so the result cache is used; writes bump the epoch, grow
// delta buckets and can trigger compaction.

const (
	mixedDim        = 16
	mixedClusters   = 4
	mixedWriteShare = 0.10 // share of /v1/update among the operations
	mixedTopKShare  = 0.45 // share of /v1/topk; the rest is /v1/above
	mixedQuantile   = 0.9999
	mixedChecks     = 40 // top-k and Above-θ queries checked after traffic
	// mixedCompact replaces lemp-serve's default -compact-frac 0.25: at
	// the default a run's few thousand writes never reach compaction.
	mixedCompact = 0.05
)

// mixedShape is the catalogue size, the read-query set size and the
// open-loop rate.
func mixedShape(tiny bool) (probes, queries int, rate float64, warm time.Duration) {
	if tiny {
		return 800, 60, 150, 100 * time.Millisecond
	}
	return 10000, 1000, 500, time.Second
}

// mixedInputs is everything serve-mixed generates from the seed.
type mixedInputs struct {
	cat      *clustered
	probes   *lemp.Matrix
	queries  *lemp.Matrix
	theta    float64
	quantile float64 // the product quantile θ was calibrated to
	perm     []int32 // initial probe ids in the order writes consume them
}

func newMixedInputs(seed int64, tiny bool) *mixedInputs {
	n, nq, _, _ := mixedShape(tiny)
	rng := stream(seed, "catalogue")
	in := &mixedInputs{cat: newClustered(rng, mixedDim, mixedClusters)}
	in.probes = in.cat.catalogue(rng, n)
	qrng := stream(seed, "queries")
	in.queries = lemp.NewMatrix(mixedDim, nq)
	for i := 0; i < nq; i++ {
		in.cat.query(qrng, i, in.queries.Vec(i))
	}
	// θ: a high quantile of the products of a query sample with the
	// catalogue, so Above-θ rows are short and shard pruning has room.
	sample := in.queries.Slice(0, min(nq, 100))
	in.quantile = mixedQuantile
	if tiny {
		in.quantile = 0.99
	}
	in.theta = productQuantile(sample, in.probes, in.quantile)
	// Writes leave the head of the catalogue alone: removing or replacing
	// one of its few long probes would change a run's cost by the luck of
	// the draw.
	for _, i := range stream(seed, "ids").Perm(n - writeHead(n)) {
		in.perm = append(in.perm, int32(writeHead(n)+i))
	}
	return in
}

// writeHead is the number of longest probes writes never touch.
func writeHead(n int) int { return min(100, n/10) }

// opGen generates one deterministic stream of mixed operations. Each
// stream owns a disjoint share of the ids writes touch, so concurrent
// streams never race on one probe and the final probe set does not depend
// on how their requests interleave.
type opGen struct {
	in     *mixedInputs
	rng    *rand.Rand
	zipf   *rand.Zipf
	ids    []int32 // ids this stream may update or remove, in order
	nextID int32   // next id this stream adds
	idStep int32
	reads  bool // reads only (warm-up)
}

func (in *mixedInputs) gen(seed int64, name string, ids []int32, firstAdd, step int32, readsOnly bool) *opGen {
	rng := stream(seed, name)
	return &opGen{
		in: in, rng: rng, ids: ids, nextID: firstAdd, idStep: step, reads: readsOnly,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(in.queries.N()-1)),
	}
}

func (g *opGen) next() op {
	u := g.rng.Float64()
	if !g.reads && u < mixedWriteShare && len(g.ids) > 0 {
		return g.write()
	}
	q := g.in.queries.Vec(int(g.zipf.Uint64()))
	if g.reads || u < mixedWriteShare+mixedTopKShare {
		return op{kind: opTopK, body: topKBody(q, topkK), q: q}
	}
	return op{kind: opAbove, body: aboveBody(q, g.in.theta), q: q}
}

// write returns a single-op update: replace, add or remove, equally often.
// A replaced probe keeps its rank and cluster (an item's vector is
// refreshed, not moved to another genre); an added one gets a random
// rank outside the head.
func (g *opGen) write() op {
	o := op{kind: opUpdate}
	n := g.in.probes.N()
	rank := 0
	switch g.rng.Intn(3) {
	case 0:
		o.verb, o.id = "update", g.ids[0]
		g.ids = g.ids[1:]
		rank = int(o.id)
	case 1:
		o.verb, o.id = "add", g.nextID
		g.nextID += g.idStep
		rank = writeHead(n) + g.rng.Intn(n-writeHead(n))
	default:
		o.verb, o.id = "remove", g.ids[0]
		g.ids = g.ids[1:]
	}
	if o.verb != "remove" {
		o.q = make([]float64, mixedDim)
		g.in.cat.probe(g.rng, rank, o.q)
	}
	o.body = updateBody(o.verb, o.id, o.q)
	return o
}

// mixedPassResult is what one serve-mixed pass measured.
type mixedPassResult struct {
	setup, restore []float64 // s, ms
	heap           float64
	open           []sample
	closed         phase
	traced         tracedServe
	srv            *server.Server
}

func serveMixed(r *run) error {
	_, _, rate, warm := mixedShape(r.tiny)
	in := newMixedInputs(r.seed, r.tiny)
	r.section("serve-mixed: clustered catalogue n=%d r=%d (%d clusters, Zipf lengths, longest first), %d read queries drawn Zipf(1.1), θ=%.6g (%gth percentile product); %d shards, cluster placement, compact-frac %g, quant on, restored from pretuned snapshots; open loop %.0f/s: %.0f%% topk, %.0f%% above, %.0f%% single-op update, then closed loop with %d connections",
		in.probes.N(), mixedDim, mixedClusters, in.queries.N(), in.theta, in.quantile*100, serveDefaults().Shards, mixedCompact, rate,
		mixedTopKShare*100, (1-mixedTopKShare-mixedWriteShare)*100, mixedWriteShare*100, conns)

	// Untimed: build, pretune and write the snapshots the passes restore.
	cfg := serveDefaults()
	cfg.Placement = "cluster"
	cfg.Options.Quantize = true
	cfg.CompactFraction = mixedCompact
	start := time.Now()
	srv, err := server.New(in.probes.Clone(), cfg)
	if err != nil {
		return err
	}
	buildMS := ms(time.Since(start))
	files, snapBytes, err := writeSnapshots(srv, r.workdir)
	if err != nil {
		return err
	}

	secs := r.seconds
	if r.trace {
		secs /= 2
	}
	base, err := mixedPass(r, in, files, rate, warm, secs, false)
	if err != nil {
		return err
	}
	r.serveE2E(base.setup, base.heap, base.open, base.closed)
	if !r.trace {
		r.tuningHistogram(base.srv.Sharded().Indexes())
		return nil
	}

	base = nil // free the untraced server before the traced pass
	tr, err := mixedPass(r, in, files, rate, warm, secs, true)
	if err != nil {
		return err
	}
	r.section("per-layer (traced pass)")
	r.serverLayers(tr.srv, tr.traced)
	r.setLayer("core.build_ms", buildMS)
	r.setLayer("snapshot.restore_ms", median(tr.restore))
	r.setLayer("snapshot.mb", mb(float64(snapBytes)))
	r.setLayer("trace.overhead_ratio", ratio(percentile(latencies(tr.open, opTopK), 0.5), r.e2e["p50_ms"]))
	r.tuningHistogram(tr.srv.Sharded().Indexes())
	return nil
}

// writeSnapshots pretunes every shard on a spread of its own probes (as
// lemp-serve -save-snapshot does) and writes one snapshot per shard with
// the sorted lists included.
func writeSnapshots(srv *server.Server, dir string) ([]string, int64, error) {
	for _, ix := range srv.Sharded().Indexes() {
		p := ix.Probe()
		sample := lemp.NewMatrix(p.R(), min(256, p.N()))
		for i := 0; i < sample.N(); i++ {
			copy(sample.Vec(i), p.Vec(i*p.N()/sample.N()))
		}
		if err := ix.PretuneTopK(sample, topkK); err != nil {
			return nil, 0, err
		}
	}
	var files []string
	var total int64
	err := srv.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) {
		name := filepath.Join(dir, fmt.Sprintf("shard.%d", i))
		files = append(files, name)
		return os.Create(name)
	}, lemp.SnapshotOptions{IncludeLists: true})
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	return files, total, err
}

// restore starts a server from the snapshot files, keeping their shard
// count and placement (lemp-serve -snapshot with default flags).
func restore(files []string, traced bool) (*server.Server, error) {
	cfg := serveDefaults()
	cfg.Shards, cfg.Placement = 0, ""
	cfg.CompactFraction = mixedCompact
	if traced {
		cfg = tracedConfig(cfg)
	}
	readers := make([]io.Reader, len(files))
	handles := make([]*os.File, len(files))
	for i, name := range files {
		f, err := os.Open(name)
		if err != nil {
			for _, h := range handles[:i] {
				h.Close()
			}
			return nil, err
		}
		handles[i], readers[i] = f, f
	}
	srv, err := server.NewFromSnapshot(readers, cfg)
	for _, f := range handles {
		f.Close()
	}
	return srv, err
}

// mixedPass restores the server setupReps times, warms it with reads, runs
// the open and closed loops, then checks the final state.
func mixedPass(r *run, in *mixedInputs, files []string, rate float64, warm time.Duration, secs float64, traced bool) (*mixedPassResult, error) {
	res := &mixedPassResult{}
	var h *harness
	for i := 0; i < setupReps; i++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		srv, err := restore(files, traced)
		if err != nil {
			return nil, err
		}
		res.restore = append(res.restore, ms(time.Since(start)))
		if h, err = startHarness(srv, traced); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
		res.srv = srv
	}
	defer h.close()
	res.heap = liveHeapMB()

	warmGen := in.gen(r.seed, "warm", nil, 0, 0, true)
	h.closedLoop(warm, func(c, j int) op {
		if c == 0 {
			return warmGen.next()
		}
		return op{kind: opTopK, body: topKBody(in.queries.Vec(j%in.queries.N()), topkK)}
	}, nil)

	// Id shares: the open loop updates and removes the first half of the
	// permutation, closed-loop client c every conns-th id of the second.
	// Adds take ids n+k·(conns+1) (open loop) and n+k·(conns+1)+1+c.
	n := int32(in.probes.N())
	step := int32(conns + 1)
	half := len(in.perm) / 2
	og := in.gen(r.seed, "open", in.perm[:half], n, step, false)
	ops := make([]op, max(1, int(rate*secs*openShare)))
	for i := range ops {
		ops[i] = og.next()
	}
	gens := make([]*opGen, conns)
	for c := range gens {
		var ids []int32
		for i := half + c; i < len(in.perm); i += conns {
			ids = append(ids, in.perm[i])
		}
		gens[c] = in.gen(r.seed, fmt.Sprintf("closed%d", c), ids, n+1+int32(c), step, false)
	}

	var before counters
	var drain *drainer
	if traced {
		var err error
		if before, err = readCounters(h); err != nil {
			return nil, err
		}
		drain = startDrain(res.srv.Tracer())
	}
	applied := make([]bool, len(ops))
	closedApplied := make([][]op, conns)
	start := time.Now()
	res.open, _ = h.openLoop(ops, rate, func(i int, o op, rp reply) {
		applied[i] = o.kind == opUpdate && rp.ok()
	})
	closedDur := time.Duration(secs * (1 - openShare) * float64(time.Second))
	res.closed = h.closedLoop(closedDur, func(c, j int) op { return gens[c].next() },
		func(c, j int, o op, rp reply) {
			if o.kind == opUpdate && rp.ok() {
				closedApplied[c] = append(closedApplied[c], o)
			}
		})
	wall := time.Since(start)
	if traced {
		agg, lost := drain.finish()
		after, err := readCounters(h)
		if err != nil {
			return nil, err
		}
		res.traced = tracedServe{agg: agg, lost: lost, before: before, after: after,
			samples: append(append([]sample(nil), res.open...), res.closed.samples...), openSamples: res.open, wall: wall}
	}
	r.count(res.open)
	r.count(res.closed.samples)

	// The probe set the successful writes should have left.
	want := map[int32][]float64{}
	for i := 0; i < in.probes.N(); i++ {
		want[int32(i)] = in.probes.Vec(i)
	}
	var writes []op
	for i, ok := range applied {
		if ok {
			writes = append(writes, ops[i])
		}
	}
	for _, w := range closedApplied {
		writes = append(writes, w...)
	}
	for _, w := range writes {
		if w.verb == "remove" {
			delete(want, w.id)
		} else {
			want[w.id] = w.q
		}
	}
	return res, r.checkMixed(h, in, want)
}

// checkMixed compares the server's live probe set with the expected one,
// then sends sampled top-k and Above-θ queries and compares each reply
// with a fresh index built from the server's final live probes and ids.
func (r *run) checkMixed(h *harness, in *mixedInputs, want map[int32][]float64) error {
	var live *lemp.Matrix
	var ids []int32
	for _, ix := range h.srv.Sharded().Indexes() {
		m, mids := ix.LiveProbes()
		if live == nil {
			live = lemp.NewMatrix(m.R(), 0)
		}
		data := append(live.Data(), m.Data()...)
		var err error
		if live, err = lemp.MatrixFromData(m.R(), live.N()+m.N(), data); err != nil {
			return err
		}
		ids = append(ids, mids...)
	}
	r.checked++
	same := len(ids) == len(want)
	for i, id := range ids {
		w, ok := want[id]
		if !ok || !slices.Equal(w, live.Vec(i)) {
			same = false
			break
		}
	}
	if !same {
		r.mismatch++
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: live probe set differs from the writes acknowledged (%d live, %d expected)\n", len(ids), len(want))
	}

	fresh, err := lemp.NewWithIDs(live, ids, lemp.Options{Algorithm: lemp.AlgorithmLI, Quantize: true})
	if err != nil {
		return err
	}
	nq := min(mixedChecks, in.queries.N())
	sample := lemp.NewMatrix(mixedDim, nq)
	for i := 0; i < nq; i++ {
		copy(sample.Vec(i), in.queries.Vec(i*in.queries.N()/nq))
	}
	topk, err := fresh.Retrieve(context.Background(), sample, lemp.TopK(topkK))
	if err != nil {
		return err
	}
	above, err := fresh.Retrieve(context.Background(), sample, lemp.AboveTheta(in.theta))
	if err != nil {
		return err
	}
	aboveRows := rowsByQuery(above.Entries, nq)
	for i := 0; i < nq; i++ {
		q := sample.Vec(i)
		for _, c := range []struct {
			kind opKind
			body []byte
			want []lemp.Entry
			sort func([]lemp.Entry)
		}{
			{opTopK, topKBody(q, topkK), stripQuery(topk.TopK[i]), canonicalTopK},
			{opAbove, aboveBody(q, in.theta), aboveRows[i], canonicalAbove},
		} {
			rp := h.post(kindPath[c.kind], c.body)
			r.attempted++
			if !rp.ok() {
				r.failed++
				continue
			}
			got, err := rowOf(rp.body)
			if err != nil {
				r.checkFailed(kindName[c.kind]+" reply", err)
				continue
			}
			c.sort(got)
			r.checkRow(kindName[c.kind]+" after writes", got, c.want)
		}
	}
	return nil
}
