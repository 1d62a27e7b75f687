package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lemp"
	"lemp/internal/server"
)

// serve-topk: online Row-Top-10 over /v1/topk, one fresh query vector per
// request, on a Netflix-shaped catalogue (r=50, low length skew) with
// range placement and quantized screening off. Result-cache hits, the
// screen, updates, cone pruning and the bulk engine are all bypassed.

const (
	topkDim    = 50
	topkK      = 10
	topkCovP   = 0.72 // Netflix probe length CoV (paper Table 1)
	topkCovQ   = 0.43 // Netflix query length CoV
	setupReps  = 7    // set-ups per pass; setup_s is their median
	openShare  = 0.7  // share of a pass's seconds in the open loop
	checkEvery = 8    // check every 8th open-loop and closed-loop reply
)

// topkShape is the serve-topk catalogue size and open-loop rate.
func topkShape(tiny bool) (probes int, rate float64, warm time.Duration) {
	if tiny {
		return 600, 150, 100 * time.Millisecond
	}
	return 20000, 100, time.Second
}

func freshQuery(rng *rand.Rand, v []float64) {
	randomDirection(rng, v)
	scale(v, lognormalLength(rng, topkCovQ))
}

// topkCheck is a query whose reply is compared with the reference.
type topkCheck struct {
	q    []float64
	body []byte
}

// topkPassResult is what one serve-topk pass measured.
type topkPassResult struct {
	setup, build []float64 // s, ms
	heap         float64
	open         []sample
	closed       phase
	traced       tracedServe
	srv          *server.Server
}

func serveTopK(r *run) error {
	probes, rate, warm := topkShape(r.tiny)
	r.section("serve-topk: catalogue n=%d r=%d CoV %.2f, queries CoV %.2f, k=%d; %d shards, range placement, quant off; open loop %.0f/s for %.0f%% of the time, then closed loop with %d connections",
		probes, topkDim, topkCovP, topkCovQ, topkK, serveDefaults().Shards, rate, openShare*100, conns)
	catalogue := func() *lemp.Matrix { return denseVectors(stream(r.seed, "catalogue"), probes, topkDim, topkCovP) }

	var ref *lemp.Index
	check := func(checks []topkCheck) error {
		if ref == nil {
			var err error
			if ref, err = lemp.New(catalogue(), lemp.Options{Algorithm: lemp.AlgorithmLI}); err != nil {
				return err
			}
		}
		return r.checkTopK(ref, checks)
	}

	secs := r.seconds
	if r.trace {
		secs /= 2
	}
	base, checks, err := topkPass(r, catalogue, rate, warm, secs, false)
	if err != nil {
		return err
	}
	if err := check(checks); err != nil {
		return err
	}
	r.serveE2E(base.setup, base.heap, base.open, base.closed)
	if !r.trace {
		r.tuningHistogram(base.srv.Sharded().Indexes())
		return nil
	}

	base = nil // free the untraced server before the traced pass
	tr, checks, err := topkPass(r, catalogue, rate, warm, secs, true)
	if err != nil {
		return err
	}
	if err := check(checks); err != nil {
		return err
	}
	r.section("per-layer (traced pass)")
	r.serverLayers(tr.srv, tr.traced)
	r.setLayer("core.build_ms", median(tr.build))
	tracedP50 := percentile(latencies(tr.open, opTopK), 0.5)
	r.setLayer("trace.overhead_ratio", ratio(tracedP50, r.e2e["p50_ms"]))
	r.tuningHistogram(tr.srv.Sharded().Indexes())
	return nil
}

// topkPass sets the server up setupReps times, warms it, and runs the
// open and closed loops; traced passes also drain every trace.
func topkPass(r *run, catalogue func() *lemp.Matrix, rate float64, warm time.Duration, secs float64, traced bool) (*topkPassResult, []topkCheck, error) {
	cfg := serveDefaults()
	if traced {
		cfg = tracedConfig(cfg)
	}
	res := &topkPassResult{}
	var h *harness
	for i := 0; i < setupReps; i++ {
		if h != nil {
			h.close()
		}
		p := catalogue()
		start := time.Now()
		srv, err := server.New(p, cfg)
		if err != nil {
			return nil, nil, err
		}
		res.build = append(res.build, ms(time.Since(start)))
		if h, err = startHarness(srv, traced); err != nil {
			return nil, nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
		res.srv = srv
	}
	defer h.close()
	res.heap = liveHeapMB()

	// Warm-up: lazy per-bucket indexes and the tuning cache fill here.
	wrng := stream(r.seed, "warm")
	var wmu sync.Mutex
	h.closedLoop(warm, func(c, j int) op {
		q := make([]float64, topkDim)
		wmu.Lock()
		freshQuery(wrng, q)
		wmu.Unlock()
		return op{kind: opTopK, body: topKBody(q, topkK)}
	}, nil)

	// Open-loop requests are encoded before the clock starts.
	nOpen := max(1, int(rate*secs*openShare))
	orng := stream(r.seed, "open")
	ops := make([]op, nOpen)
	queries := make([][]float64, nOpen)
	for i := range ops {
		queries[i] = make([]float64, topkDim)
		freshQuery(orng, queries[i])
		ops[i] = op{kind: opTopK, body: topKBody(queries[i], topkK), q: queries[i]}
	}
	crng := make([]*rand.Rand, conns)
	closedChecks := make([][]topkCheck, conns)
	for c := range crng {
		crng[c] = stream(r.seed, fmt.Sprintf("closed%d", c))
	}
	openBodies := make([][]byte, nOpen)

	var before counters
	var drain *drainer
	if traced {
		var err error
		if before, err = readCounters(h); err != nil {
			return nil, nil, err
		}
		drain = startDrain(res.srv.Tracer())
	}
	start := time.Now()
	res.open, _ = h.openLoop(ops, rate, func(i int, o op, rp reply) {
		if i%checkEvery == 0 && rp.ok() {
			openBodies[i] = rp.body
		}
	})
	closedDur := time.Duration(secs * (1 - openShare) * float64(time.Second))
	res.closed = h.closedLoop(closedDur, func(c, j int) op {
		q := make([]float64, topkDim)
		freshQuery(crng[c], q)
		return op{kind: opTopK, body: topKBody(q, topkK), q: q}
	}, func(c, j int, o op, rp reply) {
		if j%checkEvery == 0 && rp.ok() {
			closedChecks[c] = append(closedChecks[c], topkCheck{q: o.q, body: rp.body})
		}
	})
	wall := time.Since(start)
	if traced {
		agg, lost := drain.finish()
		after, err := readCounters(h)
		if err != nil {
			return nil, nil, err
		}
		res.traced = tracedServe{agg: agg, lost: lost, before: before, after: after,
			samples: append(append([]sample(nil), res.open...), res.closed.samples...), openSamples: res.open, wall: wall}
	}
	r.count(res.open)
	r.count(res.closed.samples)

	var checks []topkCheck
	for i, b := range openBodies {
		if b != nil {
			checks = append(checks, topkCheck{q: queries[i], body: b})
		}
	}
	for _, cc := range closedChecks {
		checks = append(checks, cc...)
	}
	return res, checks, nil
}

// checkTopK compares every captured reply with a direct top-k Retrieve
// on a single index over the same catalogue.
func (r *run) checkTopK(ref *lemp.Index, checks []topkCheck) error {
	if len(checks) == 0 {
		return nil
	}
	q := lemp.NewMatrix(ref.R(), len(checks))
	for i, c := range checks {
		copy(q.Vec(i), c.q)
	}
	want, err := ref.Retrieve(context.Background(), q, lemp.TopK(topkK))
	if err != nil {
		return err
	}
	for i, c := range checks {
		got, err := rowOf(c.body)
		if err != nil {
			r.checkFailed("topk reply", err)
			continue
		}
		canonicalTopK(got)
		r.checkRow("topk", got, stripQuery(want.TopK[i]))
	}
	return nil
}
