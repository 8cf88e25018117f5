package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// mixEntry is one benchmark's share of a serve-warm schedule block: how
// many of its sessions a block holds, how many of those set attrib=1, and
// which client connection (lane) sends them.
type mixEntry struct {
	Bench    string `json:"bench"`
	PerBlock int    `json:"per_block"`
	Attrib   int    `json:"attrib"`
	Lane     int    `json:"lane"`
}

// serveParams configure serve-warm: one gencached node, warm-started from a
// snapshot written during set-up, serving an open-loop Poisson stream of
// sessions whose logs repeat, so the shared tier mostly serves adoptions.
type serveParams struct {
	Scale float64 `json:"scale"`
	// Mix is the composition of every block of the schedule; each block is
	// shuffled by the seed. Drawing without replacement per block keeps the
	// large/medium/small proportions and the attrib share, and so the
	// latency percentiles, from wandering with the seed. The counts put
	// each percentile inside one benchmark's band rather than on a border:
	// the median among solitaire sessions, the 99th among word sessions.
	//
	// Lanes are the client connections: each sends its own benchmarks'
	// sessions in schedule order. The large logs have a lane to themselves,
	// so they never overlap each other on the node (which would set the
	// tail latency and the memory peak by where the seed happens to put
	// them) and small sessions never queue behind them. A session due while
	// its lane is busy waits, and its latency, timed from due, shows it.
	Mix           []mixEntry `json:"mix"`
	Rate          float64    `json:"rate_per_s"`
	SharedCap     uint64     `json:"shared_cap_bytes"`
	SetupReps     int        `json:"setup_reps"`
	SampleEveryMs int        `json:"sample_every_ms"`
	LayerReps     int        `json:"layer_reps"`

	tamper func(i int, r *api.SessionResult)
}

func defaultServeParams() serveParams {
	return serveParams{
		Scale: 1.0 / 16,
		Mix: []mixEntry{
			{"gzip", 40, 10, 1}, {"solitaire", 22, 5, 1}, {"eon", 14, 3, 1}, {"gcc", 20, 5, 1},
			{"excel", 2, 1, 0}, {"word", 2, 1, 0},
		},
		Rate:          40,
		SharedCap:     8 << 20,
		SetupReps:     3,
		SampleEveryMs: 5,
		LayerReps:     4,
	}
}

// scheduled is one session of an open-loop schedule.
type scheduled struct {
	Due    time.Duration
	Log    int
	Attrib bool
	Lane   int
}

// serveSchedule draws the session stream for seconds of load: whole blocks
// of the mix, each shuffled, arriving as a Poisson process at the
// configured rate. The n arrival times are n sorted uniform draws over
// n/rate seconds, which is a Poisson process conditioned on its count, so
// every seed offers the same load over the same span.
func serveSchedule(p serveParams, seed int64, seconds float64) []scheduled {
	rng := rand.New(rand.NewSource(seed))
	var block []scheduled
	for i, m := range p.Mix {
		for k := 0; k < m.PerBlock; k++ {
			block = append(block, scheduled{Log: i, Attrib: k < m.Attrib, Lane: m.Lane})
		}
	}
	blocks := max(1, int(math.Round(p.Rate*seconds/float64(len(block)))))
	var out []scheduled
	for b := 0; b < blocks; b++ {
		start := len(out)
		out = append(out, block...)
		rng.Shuffle(len(block), func(i, j int) { out[start+i], out[start+j] = out[start+j], out[start+i] })
	}
	span := float64(len(out)) / p.Rate
	due := make([]float64, len(out))
	for i := range due {
		due[i] = rng.Float64() * span
	}
	sort.Float64s(due)
	for i := range out {
		out[i].Due = time.Duration(due[i] * float64(time.Second))
	}
	return out
}

// serveNode is the node under test and what set-up measured building it.
type serveNode struct {
	srv   *server.Server
	ts    *httptest.Server
	dir   string
	save  time.Duration
	load  time.Duration
	bytes int64
}

func (n *serveNode) close() {
	n.ts.Close()
	os.RemoveAll(n.dir)
}

// serveSetup synthesizes the mix's logs, computes their offline
// expectations, warms a server on each log once, snapshots its shared tier
// and starts the measured node from that snapshot.
func serveSetup(ctx context.Context, tr *tracer, p serveParams, opts runOpts, o *outcome) ([]*inputLog, []expectation, *serveNode, error) {
	root := tr.begin(0, 0, "bench.setup")
	defer tr.end(root)
	var specs []logSpec
	for _, m := range p.Mix {
		specs = append(specs, logSpec{Bench: m.Bench, Scale: p.Scale})
	}
	logs, err := synthLogs(ctx, tr, root, specs, 2)
	if err != nil {
		return nil, nil, nil, err
	}
	exps, err := offlineExpectations(tr, root, logs)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp(opts.out, "serve-warm-")
	if err != nil {
		return nil, nil, nil, err
	}
	node := &serveNode{dir: dir}
	cfg := server.Config{
		SharedCapacity: p.SharedCap,
		KeepWarm:       true,
		SnapshotPath:   filepath.Join(dir, "shared.ccpersist"),
		Logf:           discardLogf,
	}
	warm, err := server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	for i, l := range logs {
		sp := tr.begin(root, int64(i), "server.serve_session")
		res, err := warm.ServeSession(server.SessionConfig{}, l.data)
		tr.end(sp)
		o.attempted++
		if err != nil || checkSession(res, exps[i], false) != "" {
			o.failed++
		}
	}
	t := time.Now()
	sp := tr.begin(root, 0, "persist.save")
	err = warm.SaveSnapshot()
	tr.end(sp)
	node.save = time.Since(t)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	if fi, err := os.Stat(cfg.SnapshotPath); err == nil {
		node.bytes = fi.Size()
	}
	t = time.Now()
	sp = tr.begin(root, 0, "persist.load")
	node.srv, err = server.New(cfg)
	tr.end(sp)
	node.load = time.Since(t)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	if node.srv.WarmStats().Restored == 0 {
		os.RemoveAll(dir)
		return nil, nil, nil, fmt.Errorf("warm start restored no traces from %d-byte snapshot", node.bytes)
	}
	node.ts = httptest.NewServer(node.srv.Handler())
	return logs, exps, node, nil
}

// driveOpenLoop runs a schedule against the node, one goroutine and
// connection per lane: each sends its lane's sessions in order, each at its
// due time or, when the last one is still in flight, as soon as it returns.
func driveOpenLoop(ctx context.Context, tr *tracer, parent int, cl *client.Client, sched []scheduled,
	logs []*inputLog, exps []expectation, p serveParams) []sessionRec {
	recs := make([]sessionRec, len(sched))
	lanes := 0
	for _, m := range p.Mix {
		lanes = max(lanes, m.Lane+1)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i, s := range sched {
				if s.Lane != lane {
					continue
				}
				time.Sleep(time.Until(start.Add(s.Due)))
				r := &recs[i]
				r.due, r.log, r.attrib, r.events = s.Due, s.Log, s.Attrib, logs[s.Log].events
				r.sent = time.Since(start)
				sp := tr.begin(parent, int64(i), "loadgen.session")
				var tamper func(*api.SessionResult)
				if p.tamper != nil {
					tamper = func(res *api.SessionResult) { p.tamper(i, res) }
				}
				r.res, r.bad = sendSession(ctx, tr, sp, int64(i), cl, logs[s.Log], exps[s.Log], s.Attrib, tamper)
				tr.end(sp)
				r.done = time.Since(start)
			}
		}(lane)
	}
	wg.Wait()
	return recs
}

func runServe(ctx context.Context, p serveParams, opts runOpts) (*outcome, error) {
	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	o := &outcome{params: p, e2e: metrics{}, layer: metrics{}}

	// Set-up, repeated; every node but the last is torn down.
	var (
		setups []float64
		logs   []*inputLog
		exps   []expectation
		node   *serveNode
	)
	for i := 0; i < opts.setupReps(p.SetupReps); i++ {
		if node != nil {
			node.close()
		}
		t := cpuTime()
		var err error
		logs, exps, node, err = serveSetup(ctx, tr, p, opts, o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime() - t).Seconds())
	}
	defer node.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cl := client.New(node.ts.URL)
	cl.HTTPClient = hc
	srvs := []*server.Server{node.srv}
	every := time.Duration(p.SampleEveryMs) * time.Millisecond

	// phase drives one schedule and returns its sessions and the CPU time
	// the process spent on them.
	phase := func(t *tracer, seconds float64) ([]sessionRec, time.Duration) {
		sched := serveSchedule(p, opts.seed, seconds)
		smp := startSampler(t, every, srvs)
		root := t.begin(0, 0, "bench.measure")
		cpu0 := cpuTime()
		recs := driveOpenLoop(ctx, t, root, cl, sched, logs, exps, p)
		cpu := cpuTime() - cpu0
		t.end(root)
		queued, rejected := smp.finish(srvs)
		if t != nil {
			admissionMetrics(o.layer, queued, rejected)
		}
		countFailures(o, recs)
		return recs, cpu
	}

	o.digest = logsDigest(logs)
	// Warm-up: each log once through the node, checked but untimed, so its
	// pools and the process heap reach their serving size before timing.
	rss := startRSSPeak()
	for i, l := range logs {
		_, bad := sendSession(ctx, nil, 0, int64(i), cl, l, exps[i], false, nil)
		countFailures(o, []sessionRec{{bad: bad}})
	}

	if !opts.traced {
		recs, cpu := phase(nil, opts.seconds)
		o.e2e.set("peak_rss_mb", rss.finish(), "MB")
		st := summarize(recs)
		gap, err := fig11Gap(logs)
		if err != nil {
			return nil, err
		}
		o.e2e.set("setup_s", median(setups), "s")
		o.e2e.set("events_per_cpu_s", ratio(float64(st.events), cpu.Seconds()), "1/s")
		o.samples = map[string]int{"sessions": len(st.latMs)}
		o.e2e.set("fig11_gap_pp", gap, "pp")
		return o, nil
	}

	// Traced: the same schedule untraced, then traced and profiled.
	untraced, ucpu := phase(nil, opts.seconds/2)
	rss.finish() // a traced run reports no memory figure
	prof := startCPUProfile()
	recs, tcpu := phase(tr, opts.seconds/2)
	if err := prof.stop(o, opts, "serve-warm"); err != nil {
		return nil, err
	}
	ls, err := layerPass(tr, 0, logs, p.LayerReps)
	if err != nil {
		return nil, err
	}
	o.failed += ls.stepMismatch
	m := o.layer
	var late []float64
	for i := range recs {
		late = append(late, float64(recs[i].sent-recs[i].due)/1e6)
	}
	m.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	m.set("loadgen.session_p99_ms", quantile(summarize(recs).latMs, 0.99), "ms")
	m.set("persist.save_s", node.save.Seconds(), "s")
	m.set("persist.load_s", node.load.Seconds(), "s")
	m.set("persist.snapshot_bytes", float64(node.bytes), "B")
	sharedTierMetrics(m, recs)
	serverSplit(m, recs, ls)
	logLayerMetrics(m, ls)
	synthMetrics(m, tr, logs)
	pipelineMetrics(m, tr, 2)
	bypassed(m, "tracelog.resident_event_bytes", "experiments.collect_s", "experiments.fig9_s", "experiments.fig11_s",
		"server.flush_replication_s", "cluster.peer_lookups", "cluster.lookup_miss_ratio", "cluster.lookup_mean_ms",
		"cluster.replicated", "cluster.replicate_dropped", "cluster.adoption_cache_hit_ratio")
	ust := summarize(untraced)
	wallMetrics(m, ust.elapsed.Seconds(), ratio(float64(ust.events), ust.elapsed.Seconds()), median(ust.latMs))
	ovh := ratio(tcpu.Seconds(), ucpu.Seconds()) - 1
	return o, finishLayers(m, tr, ovh, opts, "serve-warm")
}
