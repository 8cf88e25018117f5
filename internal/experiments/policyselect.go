package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/obs"
)

// The policy-selection experiment: the paper fixes the pseudo-circular local
// policy after comparing the §4 alternatives offline. The online policy
// selector instead shadow-races the candidate zoo on the live cache and
// switches the installed policy at deterministic epoch boundaries. The
// experiment replays each benchmark's log through a unified cache pinned to
// each static candidate and through the same cache under selection, and
// judges the selector against the same two bars as the adaptive-split
// controller (VsStatic).

// PolicySelectRow is one benchmark's static-vs-selector comparison. Moves
// counts the selector's live-policy swaps.
type PolicySelectRow struct {
	VsStatic
	Final string // live policy when the replay ended
	// Causes is the selector run's per-cause miss breakdown (indexed by
	// obs.Reason), from the attribution ledger riding the selector graph —
	// the switch report's "what the selector was up against".
	Causes [obs.NumReasons]uint64
}

// PolicySelection replays every benchmark's log through a unified cache
// pinned to each candidate policy and through the same cache under online
// selection.
func PolicySelection(s *Suite) ([]PolicySelectRow, error) {
	candidates := core.DefaultSelectorCandidates
	var variants []variant
	for _, cand := range candidates {
		variants = append(variants, variant{cand, func(c uint64) core.GraphSpec {
			spec := core.UnifiedSpec(c, nil)
			spec.Tiers[0].Policy = cand
			return spec
		}})
	}
	// Epochs well below the default: the compressed logs the suite collects
	// carry a few thousand to a few hundred thousand accesses, and the
	// selector needs tens of decision windows to race the zoo. The
	// attribution ledger rides the selector graph so the switch report can
	// say what kind of misses the selector was fighting. It only observes:
	// miss rates and switch counts are unchanged.
	variants = append(variants, variant{"auto", func(c uint64) core.GraphSpec {
		spec := core.UnifiedSpec(c, nil)
		spec.Tiers[0].Policy = "auto"
		spec.Selector = &core.SelectorConfig{Epoch: 256, Candidates: candidates}
		spec.Attrib = &attrib.Config{}
		return spec
	}})
	rows, err := replayVariants(s, halfPeak, variants, func(r *Run, _ uint64, res []replayed) (*PolicySelectRow, error) {
		sel := res[len(res)-1]
		row := &PolicySelectRow{
			VsStatic: judge(r.Profile.Name, variants, res),
			Final:    strings.Join(sel.live, "-"),
			Causes:   sel.selector.MissCauses,
		}
		row.Moves, row.Reverted = sel.selector.Switches, sel.selector.Reversals
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return present(rows), nil
}

// RenderPolicySelection renders the comparison as text.
func RenderPolicySelection(rows []PolicySelectRow) string {
	vs := make([]VsStatic, len(rows))
	for i, r := range rows {
		vs[i] = r.VsStatic
	}
	return renderVsStatic(vs, []string{"Selector", "Switches", "Final", "Verdict", "Top cause"}, func(i int) []string {
		return []string{rows[i].Final, rows[i].Verdict(), TopCauseLabel(rows[i].Causes)}
	})
}

// TopCauseLabel names the dominant regeneration cause in a per-cause miss
// breakdown, with its share of all regenerations: "capacity 62%". Cold is a
// compile, not a regeneration, so it never wins; "-" when nothing
// regenerated.
func TopCauseLabel(causes [obs.NumReasons]uint64) string {
	var total uint64
	top, topN := obs.ReasonNone, uint64(0)
	for c := obs.Reason(1); int(c) < obs.NumReasons; c++ {
		if c == obs.ReasonCold {
			continue
		}
		total += causes[c]
		if causes[c] > topN {
			top, topN = c, causes[c]
		}
	}
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%s %.0f%%", top.String(), float64(topN)/float64(total)*100)
}
