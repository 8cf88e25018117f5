package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// variant is one cache configuration an experiment replays: a label and the
// tier graph it builds at a job's capacity. spec is called once per replay,
// so stateful pieces (local policies) are fresh in every job.
type variant struct {
	label string
	spec  func(capacity uint64) core.GraphSpec
}

// unified is the paper's baseline: one pseudo-circular cache.
var unified = variant{"unified", func(c uint64) core.GraphSpec { return core.UnifiedSpec(c, nil) }}

// layout is a three-tier configuration resized to the job's capacity.
func layout(cfg core.Config) func(uint64) core.GraphSpec {
	return func(c uint64) core.GraphSpec {
		sized := cfg
		sized.TotalCapacity = c
		return sized.GraphSpec()
	}
}

// layoutVariant labels a layout the way Figure 9 labels its bars.
func layoutVariant(cfg core.Config) variant { return variant{configLabel(cfg), layout(cfg)} }

// replayed is one variant's replay: its result plus the controller counters
// read off its graph before the graph is dropped.
type replayed struct {
	sim.Result
	adaptive core.AdaptiveStats
	selector core.SelectorStats
	live     []string // live local policy per tier at the end of the replay
}

// halfPeak is the paper's operating point (§6): a cache at half the run's
// unbounded footprint.
var halfPeak = []float64{0.5}

// replayVariants is the one replay path of the offline experiments, the
// paper's method (§6): each collected log replays under every configuration
// being studied. It runs one pipeline job per (capacity fraction, run) pair,
// fraction-major. A job sizes the cache at frac of the run's unbounded peak,
// replays the log through each variant in turn, and reduces the results
// inside the job, so no graph outlives its job. A job whose capacity rounds
// to zero replays nothing and yields T's zero value. Every job owns its
// graphs and accumulators and results come back in job order, so the output
// is identical at every parallelism level.
func replayVariants[T any](s *Suite, fracs []float64, variants []variant, reduce func(r *Run, capacity uint64, res []replayed) (T, error)) ([]T, error) {
	var jobs []pipeline.Job[T]
	for _, frac := range fracs {
		for _, r := range s.Runs {
			jobs = append(jobs, pipeline.Job[T]{Name: r.Profile.Name, Run: func(context.Context) (T, error) {
				var zero T
				capacity := uint64(float64(r.MaxTraceBytes()) * frac)
				if capacity == 0 {
					return zero, nil
				}
				res := make([]replayed, len(variants))
				for i, v := range variants {
					out, g, err := sim.ReplayGraph(r.Profile.Name, r.Events, v.spec(capacity), s.Model, nil)
					if err != nil {
						return zero, err
					}
					res[i].Result = out
					res[i].adaptive, _ = g.AdaptiveStats()
					res[i].selector, _ = g.SelectorStats()
					res[i].live = g.LivePolicies()
				}
				return reduce(r, capacity, res)
			}})
		}
	}
	return pipeline.Map(s.context(), pipeline.Options{Parallel: s.Parallel}, jobs)
}

// reductions returns each later result's miss-rate reduction over the first
// (the unified baseline): Figure 9's metric, positive is better, 0 when the
// baseline never misses.
func reductions(res []replayed) []float64 {
	out := make([]float64, len(res)-1)
	for i, g := range res[1:] {
		out[i] = sim.Comparison{Unified: res[0].Result, Generational: g.Result}.MissRateReduction()
	}
	return out
}

// baselineReductions reduces one job to its variants' miss-rate reductions
// over the unified baseline (variant 0). A run whose baseline never misses
// has nothing to reduce: it yields nil and stays out of the averages.
func baselineReductions(_ *Run, _ uint64, res []replayed) ([]float64, error) {
	if res[0].MissRate() == 0 {
		return nil, nil
	}
	return reductions(res), nil
}

// meanReductions averages width per-run reductions over the runs that have
// them (nil rows are skipped), in run order; runs is how many counted.
func meanReductions(rows [][]float64, width int) (avgs []float64, runs int) {
	avgs = make([]float64, width)
	for _, reds := range rows {
		if reds == nil {
			continue
		}
		runs++
		for i, v := range reds {
			avgs[i] += v
		}
	}
	if runs > 0 {
		for i := range avgs {
			avgs[i] /= float64(runs)
		}
	}
	return avgs, runs
}

// present drops the rows of jobs that replayed nothing.
func present[T any](rows []*T) []T {
	var out []T
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}
