package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
)

// spanLayers are the layers the benchmark opens spans for: the repository
// packages it calls, plus its own orchestration (bench), load generator
// (loadgen) and output checks (check).
var spanLayers = []string{
	"bench", "loadgen", "check", "experiments", "pipeline", "workload", "dbt",
	"tracelog", "sim", "server", "persist",
}

// perLayer is the metric set of a traced run, with units. A workload that
// bypasses a layer reports its metrics as 0.
var perLayer = func() []metricDecl {
	ms := []metricDecl{
		{"workload.synthesize_s", "s"}, {"dbt.run_s", "s"}, {"dbt.events", "count"},
		{"tracelog.readall_s", "s"}, {"tracelog.bytes_per_event", "B"}, {"tracelog.resident_event_bytes", "B"},
		{"tracelog.decode_ns_per_event", "ns"},
		{"sim.replay_ns_per_event", "ns"}, {"sim.stepblock_ns_per_event", "ns"},
		{"experiments.collect_s", "s"}, {"experiments.fig9_s", "s"}, {"experiments.fig11_s", "s"},
		{"pipeline.longest_job_s", "s"}, {"pipeline.busy_share", "ratio"},
		{"server.offline_replay_s", "s"}, {"server.overhead_s", "s"}, {"server.queued_mean", "ratio"},
		{"server.rejected", "count"}, {"server.flush_replication_s", "s"},
		{"attrib.ns_per_event", "ns"},
		{"loadgen.late_p99_ms", "ms"}, {"loadgen.session_p99_ms", "ms"},
		{"core.adopt_ratio", "ratio"}, {"core.published", "count"}, {"core.saved_gen_instr", "instr"},
		{"cluster.peer_lookups", "count"}, {"cluster.lookup_miss_ratio", "ratio"}, {"cluster.lookup_mean_ms", "ms"},
		{"cluster.replicated", "count"}, {"cluster.replicate_dropped", "count"},
		{"cluster.adoption_cache_hit_ratio", "ratio"},
		{"persist.save_s", "s"}, {"persist.snapshot_bytes", "B"}, {"persist.load_s", "s"},
		{"profile.samples", "count"},
		{"wall.pass_s", "s"}, {"wall.events_per_s", "1/s"}, {"wall.session_p50_ms", "ms"},
	}
	for _, t := range profileTargets {
		ms = append(ms, metricDecl{"profile." + t.stem + "_share", "ratio"}, metricDecl{"profile." + t.stem + "_samples", "count"})
	}
	for _, l := range spanLayers {
		ms = append(ms, metricDecl{"self." + l + "_s", "s"})
	}
	return append(ms, metricDecl{"trace.overhead_share", "ratio"}, metricDecl{"trace.spans", "count"})
}()

// bypassed reports the named metrics as 0: the workload never calls the
// layer they measure.
func bypassed(m metrics, names ...string) {
	for _, n := range names {
		if _, ok := m[n]; ok {
			panic("perfbench: bypassed metric already measured: " + n)
		}
		for _, d := range perLayer {
			if d.name == n {
				m.set(n, 0, d.unit)
			}
		}
	}
}

// synthMetrics fills the synthesis-layer metrics from the spans synthLog
// opened.
func synthMetrics(m metrics, tr *tracer, logs []*inputLog) {
	var events uint64
	for _, l := range logs {
		events += l.events
	}
	m.set("workload.synthesize_s", tr.seconds("workload.synthesize"), "s")
	m.set("dbt.run_s", tr.seconds("dbt.run"), "s")
	m.set("dbt.events", float64(events), "count")
}

// wallMetrics sets the wall-clock figures of a run's untraced phase: the
// median pass or round time, events of completed work per wall second, and
// the median session latency (offline-figures: the median pass).
func wallMetrics(m metrics, passS, eventsPerS, sessionP50Ms float64) {
	m.set("wall.pass_s", passS, "s")
	m.set("wall.events_per_s", eventsPerS, "1/s")
	m.set("wall.session_p50_ms", sessionP50Ms, "ms")
}

// finishLayers adds the self time per layer and the tracing overhead
// (traced over untraced headline, minus one) and writes the spans out.
func finishLayers(m metrics, tr *tracer, overhead float64, opts runOpts, workload string) error {
	self := tr.selfSeconds()
	for _, l := range spanLayers {
		m.set("self."+l+"_s", self[l], "s")
		delete(self, l)
	}
	for l := range self {
		return fmt.Errorf("span layer %q is not in spanLayers", l)
	}
	m.set("trace.overhead_share", overhead, "ratio")
	m.set("trace.spans", float64(tr.count()), "count")
	path, err := tr.write(opts.out, workload, opts.seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}

// cpuProfile samples the process's CPU while a traced phase runs.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func startCPUProfile() *cpuProfile {
	p := &cpuProfile{}
	p.on = pprof.StartCPUProfile(&p.buf) == nil
	return p
}

// stop ends the profile, saves it under the output directory and sets the
// profile.* metrics: for each target function the share of samples whose
// stack contains it, and the sample counts behind the share.
func (p *cpuProfile) stop(o *outcome, opts runOpts, workload string) error {
	if !p.on {
		return fmt.Errorf("CPU profiling unavailable")
	}
	pprof.StopCPUProfile()
	counts, total, err := profileShares(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	o.layer.set("profile.samples", float64(total), "count")
	for _, t := range profileTargets {
		o.layer.set("profile."+t.stem+"_share", ratio(float64(counts[t.stem]), float64(total)), "ratio")
		o.layer.set("profile."+t.stem+"_samples", float64(counts[t.stem]), "count")
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opts.out, fmt.Sprintf("cpu-%s-seed%d.pprof", workload, opts.seed)), p.buf.Bytes(), 0o644)
}
