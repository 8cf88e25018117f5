package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// Static zoo vs online controller

// The adaptive-split and policy-selection experiments ask one question of an
// online controller: how does it fare against the static configurations it
// chooses among, each tuned offline? The controller must beat the worst
// static configuration (the cost of choosing blind) and land within
// OnlineTolerance of the best one (the value of tuning offline).

// OnlineTolerance is how close (relative) the controller's miss rate must be
// to the best static configuration's to count as matching it.
const OnlineTolerance = 0.05

// VsStatic is one benchmark's static-vs-online comparison.
type VsStatic struct {
	Name    string
	Configs []string  // static configuration labels
	Static  []float64 // miss rate per static configuration
	// BestStatic/WorstStatic index Configs/Static.
	BestStatic  int
	WorstStatic int

	Online float64 // the controller's miss rate
	// Moves counts the controller's changes: capacity shifts (adaptive
	// split) or live-policy swaps (selector). Reverted counts the moves that
	// undid the immediately preceding one.
	Moves    uint64
	Reverted uint64

	// BeatsWorst: online < worst static. WithinBest: online is within
	// OnlineTolerance (relative) of the best static.
	BeatsWorst bool
	WithinBest bool
}

// judge compares a job's last replay (the controller) with the others (the
// static zoo, labelled by variants).
func judge(name string, variants []variant, res []replayed) VsStatic {
	n := len(res) - 1
	v := VsStatic{Name: name, Online: res[n].MissRate()}
	for i, r := range res[:n] {
		m := r.MissRate()
		v.Configs = append(v.Configs, variants[i].label)
		v.Static = append(v.Static, m)
		if i == 0 || m < v.Static[v.BestStatic] {
			v.BestStatic = i
		}
		if i == 0 || m > v.Static[v.WorstStatic] {
			v.WorstStatic = i
		}
	}
	best, worst := v.Static[v.BestStatic], v.Static[v.WorstStatic]
	v.BeatsWorst = v.Online < worst || worst == best
	v.WithinBest = v.Online <= best*(1+OnlineTolerance) || best == 0
	return v
}

// Verdict summarizes the two bars in words.
func (v VsStatic) Verdict() string {
	switch {
	case v.BeatsWorst && v.WithinBest:
		return "beats worst, within best"
	case v.BeatsWorst:
		return "beats worst"
	case v.WithinBest:
		return "within best"
	default:
		return "worse than worst"
	}
}

// renderVsStatic renders comparisons as a table: the benchmark, each static
// miss rate with the best and worst marked, the controller's miss rate and
// moves, then extra(i) for row i. header names the columns from the
// controller's miss rate on.
func renderVsStatic(rows []VsStatic, header []string, extra func(i int) []string) string {
	if len(rows) == 0 {
		return ""
	}
	t := stats.NewTable(append(append([]string{"Benchmark"}, rows[0].Configs...), header...)...)
	for i, r := range rows {
		cells := []string{r.Name}
		for j, m := range r.Static {
			label := fmt.Sprintf("%.3f%%", m*100)
			switch j {
			case r.BestStatic:
				label += " (best)"
			case r.WorstStatic:
				label += " (worst)"
			}
			cells = append(cells, label)
		}
		cells = append(cells,
			fmt.Sprintf("%.3f%%", r.Online*100),
			fmt.Sprintf("%d (-%d)", r.Moves, r.Reverted))
		t.AddRow(append(cells, extra(i)...)...)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Adaptive split

// The adaptive-split experiment: the paper settles the nursery/probation/
// persistent proportions offline by sweeping Figure 9's layouts per
// benchmark. The adaptive controller instead starts from the neutral
// 33-33-33 split and re-balances capacity online from windowed eviction
// pressure. The experiment replays each benchmark's log through the three
// Figure 9 static layouts and through the adaptive graph.

// adaptiveVariant is the adaptive graph. The controller adapts the capacity
// split only, so the graph keeps the paper's single-hit promote-on-access
// gate and starts from the neutral balanced split — the proportions are what
// it must discover online. Epochs are well below the default: the compressed
// logs the suite collects carry a few thousand to a few hundred thousand
// accesses, and the controller needs tens of decision points to walk the
// split.
var adaptiveVariant = variant{"adaptive", func(c uint64) core.GraphSpec {
	spec := core.Config{
		TotalCapacity: c,
		NurseryFrac:   1.0 / 3, ProbationFrac: 1.0 / 3, PersistentFrac: 1.0 / 3,
		PromoteThreshold: 1, PromoteOnAccess: true,
	}.GraphSpec()
	spec.Adaptive = &core.AdaptiveConfig{Epoch: 512}
	return spec
}}

// AdaptiveVsStatic replays every benchmark's log through the Figure 9 static
// layouts and through an adaptive graph starting from the balanced split.
// Moves counts the controller's capacity shifts.
func AdaptiveVsStatic(s *Suite) ([]VsStatic, error) {
	variants := append(append([]variant{}, figure9Layouts...), adaptiveVariant)
	rows, err := replayVariants(s, halfPeak, variants, func(r *Run, _ uint64, res []replayed) (*VsStatic, error) {
		v := judge(r.Profile.Name, variants, res)
		as := res[len(res)-1].adaptive
		v.Moves, v.Reverted = as.Resizes, as.Reversals
		return &v, nil
	})
	if err != nil {
		return nil, err
	}
	return present(rows), nil
}

// RenderAdaptiveVsStatic renders the comparison as text.
func RenderAdaptiveVsStatic(rows []VsStatic) string {
	return renderVsStatic(rows, []string{"Adaptive", "Resizes", "Verdict"}, func(i int) []string {
		return []string{rows[i].Verdict()}
	})
}
