// Command ccsim replays a cache-event log (produced by tracegen) through a
// chosen code-cache configuration — the second half of the paper's
// evaluation methodology (§6).
//
// Usage:
//
//	ccsim -log word.cclog [-capfrac 0.5] [-layout 45-10-45] [-threshold 1] [-parallel n] [-timeout d]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	ccsim -log word.cclog -unified
//	ccsim -log word.cclog -events events.jsonl
//	ccsim -log word.cclog -procs 4
//	ccsim -log word.cclog -tiers 30-10-20-40@1,2,4
//	ccsim -log word.cclog -adaptive -epoch 512
//	ccsim -log word.cclog -tiers 30@lru-70@trrip
//	ccsim -log word.cclog -policy auto
//	ccsim -policies
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/profiling"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracelog"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is ccsim: it parses args, replays the log, writes the report to
// stdout — or to stderr when the -events stream owns stdout — and returns
// the exit status (2 for a bad command line, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	logPath := fs.String("log", "", "cache-event log path")
	capFrac := fs.Float64("capfrac", api.DefaultCapFrac, "cache capacity as a fraction of the unbounded peak (the paper uses 0.5)")
	layout := fs.String("layout", api.DefaultLayout, "nursery-probation-persistent percentages")
	threshold := fs.Uint64("threshold", api.DefaultThreshold, "probation promotion threshold")
	unified := fs.Bool("unified", false, "simulate only the unified baseline")
	tiers := fs.String("tiers", "", `replay an arbitrary tier graph instead of the stock generational chain, e.g. "30-10-20-40@1,2,4" (percentages, then per-edge promotion thresholds) or "30@lru-70@trrip" (per-tier policies)`)
	adaptive := fs.Bool("adaptive", false, "attach the adaptive split controller (re-balances tier capacities online)")
	epoch := fs.Uint64("epoch", 0, "accesses between adaptive controller decisions (0 = controller default)")
	policyFlag := fs.String("policy", "", `local-policy spec applied to every graph tier not already naming one ("lru", "trrip:cold=4", "auto" for online selection); implies the tier-graph replay path`)
	why := fs.Bool("why", false, "attach the attribution ledger and render the per-module miss-cause report; implies the tier-graph replay path")
	whyEpoch := fs.Uint64("whyepoch", 0, "attribution epoch in accesses for -why (0 = ledger default)")
	whyTop := fs.Int("whytop", 12, "modules shown in the -why report (0 = all)")
	selEpoch := fs.Uint64("selepoch", 0, "accesses between policy-selector decisions (0 = selector default)")
	listPolicies := fs.Bool("policies", false, "list the policy registry and exit")
	procs := fs.Int("procs", 1, "replay as this many processes over one shared persistent tier (1 = classic single-process replay)")
	stagger := fs.Int("stagger", 0, "with -procs > 1: admit process p after p*stagger total events (0 = auto)")
	parallel := fs.Int("parallel", 0, "worker pool size for the replays (0 = GOMAXPROCS, 1 = sequential); results are identical at every level")
	timeout := fs.Duration("timeout", 0, "abort the simulation after this long (0 = no limit)")
	eventsPath := fs.String("events", "", `dump the observer event stream as JSON lines to this file ("-" = stdout); forces -parallel 1 so the stream stays ordered`)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has reported the problem
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "ccsim:", msg)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ccsim:", err)
		return 1
	}

	if *version {
		fmt.Fprintln(stdout, buildinfo.Version("ccsim"))
		return 0
	}
	if *listPolicies {
		fmt.Fprint(stdout, policy.Describe())
		return 0
	}
	if err := pipeline.Validate(*parallel); err != nil {
		return usage(fmt.Sprintf("invalid -parallel value: %v", err))
	}
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer stop()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *logPath == "" {
		return usage("-log is required")
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	h, events, err := tracelog.ReadAll(f)
	if err != nil {
		return fail(err)
	}
	out := stdout
	var dump *eventDumper
	if *eventsPath != "" {
		w := stdout
		if *eventsPath != "-" {
			ef, err := os.Create(*eventsPath)
			if err != nil {
				return fail(err)
			}
			defer ef.Close()
			w = ef
		} else {
			out = stderr // keep the JSON stream on stdout uncontaminated
		}
		dump = &eventDumper{enc: json.NewEncoder(w)}
		*parallel = 1 // one replay at a time keeps the stream ordered
	}

	// The replay configuration is a session configuration: the same type,
	// sizing and graph builder a gencached session of these parameters uses,
	// so ccsim is the offline ground truth for served sessions.
	cfg := api.SessionConfig{
		CapFrac:    *capFrac,
		Layout:     *layout,
		Threshold:  threshold,
		Tiers:      *tiers,
		Policy:     *policyFlag,
		SelEpoch:   *selEpoch,
		Adaptive:   *adaptive,
		AdaptEpoch: *epoch,
		Attrib:     *why,
		Events:     dump != nil,
	}
	sum := tracelog.Summarize(h, events)
	capacity, err := cfg.Capacity(sum.MaxLiveBytes)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(out, "%s: %s events, unbounded peak %s, simulated capacity %s\n",
		h.Benchmark, stats.FmtCount(uint64(len(events))), stats.FmtBytes(sum.MaxLiveBytes), stats.FmtBytes(capacity))
	spec, err := cfg.GraphSpec(capacity)
	if err != nil {
		return fail(err)
	}
	if spec.Attrib != nil {
		spec.Attrib.Epoch = *whyEpoch // a report setting, not a session parameter
	}

	graphMode := *tiers != "" || *adaptive || *policyFlag != "" || *why
	if *why && *unified {
		return usage("-why attributes the tier-graph replay; it does not combine with -unified")
	}
	if *procs > 1 {
		if graphMode {
			return usage("-tiers, -adaptive, -policy, and -why do not combine with -procs")
		}
		if err := runShared(out, h.Benchmark, events, spec, *procs, *stagger, dump); err != nil {
			return fail(err)
		}
		return 0
	}
	if *procs < 1 {
		return usage("-procs must be at least 1")
	}

	// Every replay's manager is built here rather than inside sim so its
	// controller counters can be reported after the replay. The event dump
	// tags the configuration "graph" when a graph flag shaped it.
	baseline, err := api.SessionConfig{Unified: true}.GraphSpec(capacity)
	if err != nil {
		return fail(err)
	}
	mgrs := make([]*core.Graph, 2)
	job := func(i int, tag string, spec core.GraphSpec) pipeline.Job[sim.Result] {
		return pipeline.Job[sim.Result]{Name: tag, Run: func(context.Context) (sim.Result, error) {
			acc := costmodel.NewAccum(costmodel.DefaultModel)
			o := dump.forConfig(tag)
			mgr, err := core.NewGraph(spec, obs.Combine(sim.CostObserver(acc), o))
			if err != nil {
				return sim.Result{}, err
			}
			mgrs[i] = mgr
			return sim.ReplayObserved(h.Benchmark, events, mgr, acc, o)
		}}
	}
	jobs := []pipeline.Job[sim.Result]{job(0, "unified/pseudo-circular", baseline)}
	if !*unified {
		tag := "generational"
		if graphMode {
			tag = "graph"
		}
		jobs = append(jobs, job(1, tag, spec))
	}
	results, err := pipeline.Map(ctx, pipeline.Options{Parallel: *parallel}, jobs)
	if err == nil {
		err = dump.failed()
	}
	if err != nil {
		return fail(err)
	}

	u := results[0]
	report(out, "unified/pseudo-circular", u)
	if *unified {
		return 0
	}
	g, graphMgr := results[1], mgrs[1]
	report(out, g.Config, g)
	if as, ok := graphMgr.AdaptiveStats(); ok {
		caps := graphMgr.TierCapacities()
		parts := make([]string, len(caps))
		for i, c := range caps {
			parts[i] = fmt.Sprintf("%.0f", 100*float64(c)/float64(capacity))
		}
		fmt.Fprintf(out, "  adaptive: %d resizes (%d reversals, %d blocked) over %d epochs, final split %s\n",
			as.Resizes, as.Reversals, as.Blocked, as.Epochs, strings.Join(parts, "-"))
	}
	if ss, ok := graphMgr.SelectorStats(); ok {
		fmt.Fprintf(out, "  selector: %d switches (%d reversals) over %d epochs, live policies %s\n",
			ss.Switches, ss.Reversals, ss.Epochs, strings.Join(graphMgr.LivePolicies(), "-"))
	}
	if led := graphMgr.Ledger(); led != nil {
		snap := led.Snapshot()
		fmt.Fprintln(out)
		gate := uint64(0)
		for _, t := range spec.Tiers {
			if t.Threshold > 0 {
				gate = t.Threshold
				break
			}
		}
		if prem, middle, share := snap.PrematureShare(); middle > 0 && gate > 0 {
			fmt.Fprintf(out, "why: probation threshold %d deleted %d of %d middle-tier casualties (%.1f%%) that re-heated within %d epoch(s)\n",
				gate, prem, middle, share, snap.ReheatEpochs)
		}
		snap.WriteReport(out, *whyTop)
		if !snap.Conserved() || snap.Regens != g.Regenerations {
			return fail(fmt.Errorf("attribution conservation violated: %d cause counts, %d ledger regenerations, %d replay regenerations",
				snap.RegenCauses(), snap.Regens, g.Regenerations))
		}
	}

	red := 0.0
	if u.MissRate() > 0 {
		red = 1 - g.MissRate()/u.MissRate()
	}
	fmt.Fprintf(out, "\nmiss-rate reduction: %+.1f%%   misses eliminated: %d   overhead ratio: %.1f%%\n",
		red*100, int64(u.Misses)-int64(g.Misses),
		costmodel.OverheadRatio(g.Overhead, u.Overhead)*100)
	return 0
}

// runShared is the -procs N>1 mode: the log is replayed once per simulated
// process over one shared persistent tier (later processes adopt published
// traces instead of regenerating them), and compared against the isolated
// aggregate — N independent replays, which all pay identical costs, so one
// replay scaled by N is exact.
func runShared(out io.Writer, benchmark string, events []tracelog.Event, spec core.GraphSpec, procs, stagger int, dump *eventDumper) error {
	iso, err := sim.ReplayGraph(benchmark, events, spec, costmodel.DefaultModel)
	if err != nil {
		return err
	}
	sh, err := sim.ReplayShared(benchmark, events, spec, costmodel.DefaultModel, procs, stagger, dump.forConfig("shared"))
	if err == nil {
		err = dump.failed()
	}
	if err != nil {
		return err
	}
	n := uint64(procs)
	isoGens := n * (iso.ColdCreates + iso.Regenerations)
	isoOverhead := float64(procs) * iso.Overhead.Total()

	fmt.Fprintf(out, "\nisolated aggregate (%d x %s)\n", procs, iso.Config)
	fmt.Fprintf(out, "  accesses %s   misses %s   miss rate %.3f%%\n",
		stats.FmtCount(n*iso.Accesses), stats.FmtCount(n*iso.Misses), 100*iso.MissRate())
	fmt.Fprintf(out, "  trace generations %s   overhead %.0f instructions   cache memory %s\n",
		stats.FmtCount(isoGens), isoOverhead, stats.FmtBytes(n*spec.TotalCapacity))

	fmt.Fprintf(out, "\n%s (%d procs over one shared persistent tier)\n", sh.Config, sh.Procs)
	fmt.Fprintf(out, "  accesses %s   misses %s   miss rate %.3f%%\n",
		stats.FmtCount(sh.Accesses), stats.FmtCount(sh.Misses), 100*sh.MissRate())
	fmt.Fprintf(out, "  trace generations %s   adoptions %s   overhead %.0f instructions   cache memory %s\n",
		stats.FmtCount(sh.Generations()), stats.FmtCount(sh.Adoptions), sh.Overhead.Total(), stats.FmtBytes(sh.CapacityBytes))
	fmt.Fprintf(out, "  shared tier: %s promotions, %s merged, %s adoptions, %s evicted, %s drained\n",
		stats.FmtCount(sh.Shared.Promotions), stats.FmtCount(sh.Shared.Merged), stats.FmtCount(sh.Shared.Adoptions),
		stats.FmtCount(sh.Shared.Evicted), stats.FmtCount(sh.Shared.Drained))

	saved := 0.0
	if isoGens > 0 {
		saved = 1 - float64(sh.Generations())/float64(isoGens)
	}
	fmt.Fprintf(out, "\ngenerations saved by sharing: %+.1f%% (equal aggregate memory)\n", saved*100)
	return nil
}

// eventDumper renders the observer stream as JSON lines, one record per
// event, tagged with the replay configuration it came from. The first write
// error is kept and stops further writes.
type eventDumper struct {
	enc *json.Encoder
	err error
}

type eventRecord struct {
	Config string `json:"config"`
	Kind   string `json:"kind"`
	Proc   int    `json:"proc,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Size   uint64 `json:"size,omitempty"`
	Module uint16 `json:"module,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Done   uint64 `json:"done,omitempty"`
	Total  uint64 `json:"total,omitempty"`
	Policy string `json:"policy,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// forConfig returns an observer writing records tagged with config, or nil
// when no dump was requested (a nil *eventDumper is valid).
func (d *eventDumper) forConfig(config string) obs.Observer {
	if d == nil {
		return nil
	}
	return obs.Func(func(e obs.Event) {
		rec := eventRecord{Config: config, Kind: e.Kind.String(), Proc: e.Proc, Trace: e.Trace, Size: e.Size, Module: e.Module}
		switch e.Kind {
		case obs.KindEvict, obs.KindUnmap, obs.KindFlush, obs.KindResize:
			rec.From = e.From.String()
		case obs.KindInsert:
			rec.To = e.To.String()
		case obs.KindPromote:
			rec.From, rec.To = e.From.String(), e.To.String()
		case obs.KindProgress:
			rec.Done, rec.Total = e.Done, e.Total
		case obs.KindPolicySwitch:
			rec.From, rec.Policy = e.From.String(), e.Policy
		case obs.KindRegenerate:
			rec.From, rec.Reason = e.From.String(), e.Reason.String()
		}
		if d.err == nil {
			d.err = d.enc.Encode(rec)
		}
	})
}

// failed returns the first write error of the dump (nil for no dump).
func (d *eventDumper) failed() error {
	if d == nil {
		return nil
	}
	return d.err
}

func report(out io.Writer, name string, r sim.Result) {
	fmt.Fprintf(out, "\n%s\n", name)
	fmt.Fprintf(out, "  accesses %s   hits %s   misses %s   miss rate %.3f%%\n",
		stats.FmtCount(r.Accesses), stats.FmtCount(r.Hits), stats.FmtCount(r.Misses), 100*r.MissRate())
	fmt.Fprintf(out, "  regenerations %s   forced deletions %s\n",
		stats.FmtCount(r.Regenerations), stats.FmtCount(r.ForcedDeletes))
	fmt.Fprintf(out, "  overhead: %.0f instructions (%s trace gens, %s evictions, %s promotions)\n",
		r.Overhead.Total(), stats.FmtCount(r.Overhead.TraceGens),
		stats.FmtCount(r.Overhead.Evictions), stats.FmtCount(r.Overhead.Promotions))
}
