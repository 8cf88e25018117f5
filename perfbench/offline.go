package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// offlineParams configure offline-figures: the reproduction user's path,
// collect the suite, then Figure 9 and Figure 11.
type offlineParams struct {
	Scale    float64 `json:"scale"`
	Parallel int     `json:"parallel"`
	// Benchmarks restricts the suite (nil: all 32).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Warmup is the benchmark set of the set-up pass that lets lazy
	// initialisation and heap growth finish before the first timed pass.
	Warmup    []string `json:"warmup"`
	SetupReps int      `json:"setup_reps"`
	// LayerReps is how often a traced run's layer pass times each call.
	LayerReps int `json:"layer_reps"`
}

func defaultOfflineParams() offlineParams {
	var spec []string
	for _, p := range workload.SPEC2000() {
		spec = append(spec, p.Name)
	}
	return offlineParams{Scale: 1.0 / 16, Parallel: 2, Warmup: spec, SetupReps: 3, LayerReps: 1}
}

// figurePass is one collect + Figure 9 + Figure 11 pass.
type figurePass struct {
	wall   time.Duration
	cpu    time.Duration
	events uint64
	digest string
	gapPP  float64
	rows   int
}

func runFigurePass(ctx context.Context, tr *tracer, session int64, o experiments.Options) (figurePass, error) {
	var fp figurePass
	root := tr.begin(0, session, "bench.pass")
	defer tr.end(root)
	start, cpu0 := time.Now(), cpuTime()
	sp := tr.begin(root, session, "experiments.collect")
	suite, err := experiments.CollectContext(ctx, o)
	tr.end(sp)
	if err != nil {
		return fp, err
	}
	sp = tr.begin(root, session, "experiments.fig9")
	f9, err := experiments.Figure9(suite)
	tr.end(sp)
	if err != nil {
		return fp, err
	}
	sp = tr.begin(root, session, "experiments.fig11")
	f11, err := experiments.Figure11(suite)
	tr.end(sp)
	if err != nil {
		return fp, err
	}
	fp.wall, fp.cpu = time.Since(start), cpuTime()-cpu0
	for _, r := range suite.Runs {
		fp.events += uint64(len(r.Events))
	}
	fp.digest = figureDigest(f9, f11)
	fp.gapPP = math.Abs(f11.GeoMean*100 - paperFig11GeoMean)
	fp.rows = len(f11.Rows)
	if len(f9.Rows) != len(suite.Runs) || len(f11.Rows) != len(suite.Runs) {
		fp.rows = -1
	}
	return fp, nil
}

// figureDigest hashes every simulated statistic of the Figure 9 and 11 rows
// at full precision, so two commits compare their simulations exactly.
func figureDigest(f9 experiments.Figure9Result, f11 experiments.Figure11Result) string {
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range f9.Rows {
		fmt.Fprintf(h, "f9 %s %s %d", r.Name, g(r.UnifiedMissRate), r.UnifiedMisses)
		for i := range r.Reductions {
			fmt.Fprintf(h, " %s %s %d", r.Configs[i], g(r.Reductions[i]), r.Eliminated[i])
		}
		fmt.Fprintln(h)
	}
	for _, r := range f11.Rows {
		fmt.Fprintf(h, "f11 %s %s\n", r.Name, g(r.Ratio))
	}
	fmt.Fprintf(h, "geo %s\n", g(f11.GeoMean))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runOffline(ctx context.Context, p offlineParams, opts runOpts) (*outcome, error) {
	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	o := &outcome{params: p, e2e: metrics{}, layer: metrics{}}
	base := experiments.Options{Scale: p.Scale, Parallel: p.Parallel, SeedOffset: opts.seed, Benchmarks: p.Benchmarks}

	// Set-up: a warm-up pass over a subset, repeated; the median CPU time is
	// setup_s. Memory is sampled from here on: the warm-up is lighter figure
	// work, so the peak is the full passes'.
	rss := startRSSPeak()
	warm := base
	warm.Benchmarks = p.Warmup
	var setups []float64
	for i := 0; i < opts.setupReps(p.SetupReps); i++ {
		runtime.GC()
		t := cpuTime()
		_, err := runFigurePass(ctx, nil, int64(i), warm)
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		setups = append(setups, (cpuTime() - t).Seconds())
	}

	// Measure: whole figure passes until the time is up. In a traced run
	// the first half runs untraced, the second traced and profiled, and the
	// pass times of the two halves give the tracing overhead. Every pass
	// must reproduce the first pass's digest.
	var first string
	measure := func(d time.Duration, t *tracer) ([]figurePass, error) {
		var ps []figurePass
		start := time.Now()
		for len(ps) == 0 || time.Since(start) < d {
			runtime.GC() // each pass starts from the same heap, not the last suite's garbage
			fp, err := runFigurePass(ctx, t, int64(o.attempted), base)
			o.attempted++
			if err != nil {
				return nil, err
			}
			if first == "" {
				first = fp.digest
			}
			if fp.rows < 0 || fp.digest != first {
				o.failed++
			}
			ps = append(ps, fp)
		}
		return ps, nil
	}
	secs := time.Duration(opts.seconds * float64(time.Second))
	var passes, traced []figurePass
	var err error
	if opts.traced {
		if passes, err = measure(secs/2, nil); err != nil {
			return nil, err
		}
		prof := startCPUProfile()
		traced, err = measure(secs/2, tr)
		if perr := prof.stop(o, opts, "offline-figures"); err == nil {
			err = perr
		}
		if err != nil {
			return nil, err
		}
	} else if passes, err = measure(secs, nil); err != nil {
		return nil, err
	}
	o.e2e.set("peak_rss_mb", rss.finish(), "MB")
	o.digest = first

	var walls []float64
	var events uint64
	var wall, cpu time.Duration
	for _, fp := range passes {
		walls = append(walls, fp.wall.Seconds())
		events += fp.events
		wall += fp.wall
		cpu += fp.cpu
	}
	o.e2e.set("setup_s", median(setups), "s")
	o.e2e.set("events_per_cpu_s", ratio(float64(events), cpu.Seconds()), "1/s")
	o.e2e.set("fig11_gap_pp", passes[0].gapPP, "pp")
	o.samples = map[string]int{"passes": len(passes)}
	wallMetrics(o.layer, median(walls), ratio(float64(events), wall.Seconds()), median(walls)*1000)
	if !opts.traced {
		return o, nil
	}

	// Per-layer: the collection pipeline again, with each benchmark's steps
	// called one by one from here (experiments.CollectContext is opaque),
	// then the served-path layers over the same logs.
	lm := o.layer
	lp := tr.begin(0, 0, "bench.layers")
	var specs []logSpec
	names := p.Benchmarks
	if names == nil {
		for _, pr := range workload.All() {
			names = append(names, pr.Name)
		}
	}
	for _, n := range names {
		specs = append(specs, logSpec{Bench: n, SeedOffset: opts.seed, Scale: p.Scale})
	}
	logs, err := synthLogs(ctx, tr, lp, specs, p.Parallel)
	if err != nil {
		return nil, err
	}
	ls, err := layerPass(tr, lp, logs, p.LayerReps)
	tr.end(lp)
	if err != nil {
		return nil, err
	}
	o.failed += ls.stepMismatch
	pipelineMetrics(lm, tr, p.Parallel)
	lm.set("experiments.collect_s", tr.meanSeconds("experiments.collect"), "s")
	lm.set("experiments.fig9_s", tr.meanSeconds("experiments.fig9"), "s")
	lm.set("experiments.fig11_s", tr.meanSeconds("experiments.fig11"), "s")
	lm.set("tracelog.resident_event_bytes", float64(ls.events*eventBytes), "B")
	lm.set("server.offline_replay_s", ratio(ls.offline.Seconds(), float64(len(logs))), "s")
	logLayerMetrics(lm, ls)
	synthMetrics(lm, tr, logs)
	bypassed(lm, "server.overhead_s", "server.queued_mean", "server.rejected", "server.flush_replication_s",
		"loadgen.late_p99_ms", "loadgen.session_p99_ms", "core.adopt_ratio", "core.published", "core.saved_gen_instr",
		"cluster.peer_lookups", "cluster.lookup_miss_ratio", "cluster.lookup_mean_ms", "cluster.replicated",
		"cluster.replicate_dropped", "cluster.adoption_cache_hit_ratio",
		"persist.save_s", "persist.snapshot_bytes", "persist.load_s")
	return o, finishLayers(lm, tr, ratio(meanCPU(traced), meanCPU(passes))-1, opts, "offline-figures")
}

func meanCPU(ps []figurePass) float64 {
	var s float64
	for _, p := range ps {
		s += p.cpu.Seconds()
	}
	return ratio(s, float64(len(ps)))
}
