package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// clusterParams configure cluster-cold: a 3-node gencached cluster over
// loopback HTTP, starting empty, taking one session per benchmark per
// round from closed-loop clients. No two sessions of a round share a log,
// so the shared tier mostly takes writes (publish, replicate) and peer
// lookups mostly miss. Every round runs on a fresh, empty cluster.
type clusterParams struct {
	Scale   float64  `json:"scale"`
	Benches []string `json:"benches"`
	Nodes   int      `json:"nodes"`
	Clients int      `json:"clients"`
	// FlushEvery is the replication cadence: every FlushEvery completed
	// sessions, each node flushes its replication queue.
	FlushEvery    int    `json:"flush_every"`
	Shards        int    `json:"shards"`
	SharedCap     uint64 `json:"shared_cap_bytes"`
	SetupReps     int    `json:"setup_reps"`
	SampleEveryMs int    `json:"sample_every_ms"`
	LayerReps     int    `json:"layer_reps"`

	tamper func(i int, r *api.SessionResult)
}

func defaultClusterParams() clusterParams {
	return clusterParams{
		Scale: 1.0 / 16,
		Benches: []string{
			"gcc", "eon", "perlbmk", "vortex", "solitaire", "mesa",
			"crafty", "gap", "vpr", "art", "parser", "gzip",
		},
		Nodes:         3,
		Clients:       2,
		FlushEvery:    3,
		Shards:        64,
		SharedCap:     8 << 20,
		SetupReps:     3,
		SampleEveryMs: 5,
		LayerReps:     4,
	}
}

// clusterSpecs are a run's logs: every benchmark at the run's seed offset.
func clusterSpecs(p clusterParams, seed int64) []logSpec {
	specs := make([]logSpec, len(p.Benches))
	for i, b := range p.Benches {
		specs[i] = logSpec{Bench: b, SeedOffset: seed, Scale: p.Scale}
	}
	return specs
}

type testbed struct {
	srvs []*server.Server
	ts   []*httptest.Server
	cls  []*client.Client
	hcs  []*http.Client // peer and load transports, closed with the cluster
}

func nodeID(i int) string { return fmt.Sprintf("node-%d", i) }

// startCluster starts p.Nodes empty clustered servers on loopback
// listeners and wires the full mesh once every URL exists.
func startCluster(p clusterParams, tr *tracer, parent int) (*testbed, error) {
	sp := tr.begin(parent, 0, "server.start_cluster")
	defer tr.end(sp)
	peerHTTP := newHTTPClient()
	tb := &testbed{hcs: []*http.Client{peerHTTP}}
	for i := 0; i < p.Nodes; i++ {
		srv, err := server.New(server.Config{
			SharedCapacity: p.SharedCap,
			KeepWarm:       true,
			Logf:           discardLogf,
			Cluster:        &server.ClusterConfig{NodeID: nodeID(i), Shards: p.Shards, HTTPClient: peerHTTP},
		})
		if err != nil {
			tb.close()
			return nil, err
		}
		tb.srvs = append(tb.srvs, srv)
		tb.ts = append(tb.ts, httptest.NewServer(srv.Handler()))
	}
	for i, srv := range tb.srvs {
		var peers []server.PeerAddr
		for j := range tb.srvs {
			if j != i {
				peers = append(peers, server.PeerAddr{ID: nodeID(j), URL: tb.ts[j].URL})
			}
		}
		if err := srv.SetClusterPeers(peers); err != nil {
			tb.close()
			return nil, err
		}
	}
	loadHTTP := newHTTPClient()
	tb.hcs = append(tb.hcs, loadHTTP)
	for _, ts := range tb.ts {
		cl := client.New(ts.URL)
		cl.HTTPClient = loadHTTP
		tb.cls = append(tb.cls, cl)
	}
	return tb, nil
}

func (tb *testbed) close() {
	for _, ts := range tb.ts {
		ts.Close()
	}
	for _, hc := range tb.hcs {
		hc.CloseIdleConnections()
	}
}

// roundRec is one round's sessions, replication flushes and exchange
// counters.
type roundRec struct {
	recs    []sessionRec
	wall    time.Duration
	cpu     time.Duration // the process's CPU time over the round
	flushes []time.Duration
	stats   cluster.Stats
}

// runRound sends every log once, in the given order, round-robin across the
// nodes from p.Clients closed-loop clients; each client sends its next
// session when the last one returns. Session IDs start at base, the count
// of sessions the run sent before this round.
func runRound(ctx context.Context, tr *tracer, parent int, tb *testbed, logs []*inputLog, exps []expectation,
	order []int, p clusterParams, base int) roundRec {
	rr := roundRec{recs: make([]sessionRec, len(order))}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
	)
	start, cpu0 := time.Now(), cpuTime()
	flushAll := func() {
		for _, srv := range tb.srvs {
			t := time.Now()
			sp := tr.begin(parent, 0, "server.flush_replication")
			srv.FlushReplication(ctx)
			tr.end(sp)
			mu.Lock()
			rr.flushes = append(rr.flushes, time.Since(t))
			mu.Unlock()
		}
	}
	for w := 0; w < p.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				r := &rr.recs[i]
				r.log, r.events = order[i], logs[order[i]].events
				r.sent = time.Since(start)
				r.due = r.sent // closed loop: a session is due when it is sent
				id := int64(base + i)
				sp := tr.begin(parent, id, "loadgen.session")
				var tamper func(*api.SessionResult)
				if p.tamper != nil {
					tamper = func(res *api.SessionResult) { p.tamper(int(id), res) }
				}
				r.res, r.bad = sendSession(ctx, tr, sp, id, tb.cls[i%len(tb.cls)], logs[r.log], exps[r.log], false, tamper)
				tr.end(sp)
				r.done = time.Since(start)
				mu.Lock()
				completed++
				flush := completed%p.FlushEvery == 0
				mu.Unlock()
				if flush {
					flushAll()
				}
			}
		}()
	}
	wg.Wait()
	flushAll()
	rr.wall, rr.cpu = time.Since(start), cpuTime()-cpu0
	for _, srv := range tb.srvs {
		addStats(&rr.stats, srv.Cluster().Stats())
	}
	return rr
}

func addStats(dst *cluster.Stats, s cluster.Stats) {
	dst.PeerAdoptions += s.PeerAdoptions
	dst.PeerLookups += s.PeerLookups
	dst.PeerLookupMisses += s.PeerLookupMisses
	dst.PeerLookupErrors += s.PeerLookupErrors
	dst.Replicated += s.Replicated
	dst.ReplicateRejected += s.ReplicateRejected
	dst.ReplicateDropped += s.ReplicateDropped
	dst.LookupSeconds += s.LookupSeconds
	dst.Adoption.Hits += s.Adoption.Hits
	dst.Adoption.Misses += s.Adoption.Misses
}

func runCluster(ctx context.Context, p clusterParams, opts runOpts) (*outcome, error) {
	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	o := &outcome{params: p, e2e: metrics{}, layer: metrics{}}

	var (
		setups []float64
		logs   []*inputLog
		exps   []expectation
		tb     *testbed
	)
	for i := 0; i < opts.setupReps(p.SetupReps); i++ {
		if tb != nil {
			tb.close()
		}
		t := cpuTime()
		root := tr.begin(0, 0, "bench.setup")
		var err error
		logs, err = synthLogs(ctx, tr, root, clusterSpecs(p, opts.seed), 2)
		if err == nil {
			exps, err = offlineExpectations(tr, root, logs)
		}
		if err == nil {
			tb, err = startCluster(p, tr, root)
		}
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime() - t).Seconds())
	}

	rng := rand.New(rand.NewSource(opts.seed))
	// phase runs rounds until d has passed, each on a fresh cluster (the
	// first on the one set-up started).
	var queued []float64
	var rejected uint64
	phase := func(t *tracer, d time.Duration) ([]roundRec, error) {
		var rounds []roundRec
		queued, rejected = nil, 0
		start := time.Now()
		for len(rounds) == 0 || time.Since(start) < d {
			if tb == nil {
				var err error
				if tb, err = startCluster(p, nil, 0); err != nil {
					return nil, err
				}
			}
			smp := startSampler(t, time.Duration(p.SampleEveryMs)*time.Millisecond, tb.srvs)
			root := t.begin(0, int64(len(rounds)), "bench.round")
			rr := runRound(ctx, t, root, tb, logs, exps, rng.Perm(len(logs)), p, o.attempted)
			t.end(root)
			q, r := smp.finish(tb.srvs)
			queued, rejected = append(queued, q...), rejected+r
			countFailures(o, rr.recs)
			rounds = append(rounds, rr)
			tb.close()
			tb = nil
		}
		return rounds, nil
	}

	o.digest = logsDigest(logs)
	// Warm-up: one checked, untimed round, so the process heap and the
	// connection pools reach their serving size before timing.
	rss := startRSSPeak()
	if _, err := phase(nil, 0); err != nil {
		return nil, err
	}
	if !opts.traced {
		rounds, err := phase(nil, time.Duration(opts.seconds*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		o.e2e.set("peak_rss_mb", rss.finish(), "MB")
		gap, err := fig11Gap(logs)
		if err != nil {
			return nil, err
		}
		st := roundStats(rounds)
		o.e2e.set("setup_s", median(setups), "s")
		o.e2e.set("events_per_cpu_s", ratio(float64(st.events), st.cpu.Seconds()), "1/s")
		o.samples = map[string]int{"sessions": len(st.latMs), "rounds": len(rounds)}
		o.e2e.set("fig11_gap_pp", gap, "pp")
		return o, nil
	}

	half := time.Duration(opts.seconds * float64(time.Second) / 2)
	untraced, err := phase(nil, half)
	if err != nil {
		return nil, err
	}
	rss.finish() // a traced run reports no memory figure
	prof := startCPUProfile()
	m := o.layer
	rounds, err := phase(tr, half)
	if perr := prof.stop(o, opts, "cluster-cold"); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	ls, err := layerPass(tr, 0, logs, p.LayerReps)
	if err != nil {
		return nil, err
	}
	o.failed += ls.stepMismatch

	var all []sessionRec
	var cs cluster.Stats
	var flushes []time.Duration
	for _, rr := range rounds {
		all = append(all, rr.recs...)
		addStats(&cs, rr.stats)
		flushes = append(flushes, rr.flushes...)
	}
	var flushTotal time.Duration
	for _, f := range flushes {
		flushTotal += f
	}
	m.set("cluster.peer_lookups", float64(cs.PeerLookups), "count")
	m.set("cluster.lookup_miss_ratio", ratio(float64(cs.PeerLookupMisses), float64(cs.PeerLookups)), "ratio")
	m.set("cluster.lookup_mean_ms", ratio(cs.LookupSeconds*1000, float64(cs.PeerLookups)), "ms")
	m.set("cluster.replicated", float64(cs.Replicated), "count")
	m.set("cluster.replicate_dropped", float64(cs.ReplicateDropped), "count")
	m.set("cluster.adoption_cache_hit_ratio",
		ratio(float64(cs.Adoption.Hits), float64(cs.Adoption.Hits+cs.Adoption.Misses)), "ratio")
	admissionMetrics(m, queued, rejected)
	m.set("server.flush_replication_s", ratio(flushTotal.Seconds(), float64(len(flushes))), "s")
	sharedTierMetrics(m, all)
	serverSplit(m, all, ls)
	logLayerMetrics(m, ls)
	synthMetrics(m, tr, logs)
	pipelineMetrics(m, tr, 2)
	bypassed(m, "tracelog.resident_event_bytes", "experiments.collect_s", "experiments.fig9_s", "experiments.fig11_s",
		"loadgen.late_p99_ms", "persist.save_s", "persist.snapshot_bytes", "persist.load_s")
	ut, tt := roundStats(untraced), roundStats(rounds)
	m.set("loadgen.session_p99_ms", quantile(tt.latMs, 0.99), "ms")
	var walls []float64
	for _, rr := range untraced {
		walls = append(walls, rr.wall.Seconds())
	}
	wallMetrics(m, median(walls), ratio(float64(ut.events), ut.elapsed.Seconds()), median(ut.latMs))
	ovh := ratio(float64(ut.events)/ut.cpu.Seconds(), float64(tt.events)/tt.cpu.Seconds()) - 1
	return o, finishLayers(m, tr, ovh, opts, "cluster-cold")
}

// roundStats pools the sessions of several rounds: latencies from send,
// events of passing sessions, and the summed round and CPU times.
func roundStats(rounds []roundRec) sessionStats {
	var st sessionStats
	for _, rr := range rounds {
		s := summarize(rr.recs)
		st.latMs = append(st.latMs, s.latMs...)
		st.events += s.events
		st.elapsed += rr.wall
		st.cpu += rr.cpu
	}
	return st
}
