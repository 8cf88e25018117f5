package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// pin compares the SHA-256 of an experiment's full-precision dump with the
// digest recorded when the result was pinned. The rendered tables round to
// 0.1%, so they alone cannot catch a refactor that moves a miss rate in its
// last bits; the dump prints every float with %v (shortest exact form). On a
// mismatch the dump is logged so the drifting field can be found.
func pin(t *testing.T, name, want, dump string) {
	t.Helper()
	sum := sha256.Sum256([]byte(dump))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s drifted from its pinned result: sha256 %s, want %s\n%s", name, got, want, dump)
	}
}

// dumpf joins one line per formatted record.
func dumpf(b *strings.Builder, format string, args ...any) {
	fmt.Fprintf(b, format, args...)
	b.WriteByte('\n')
}

// dumpRows prints one %+v line per row, then one line of aggregates.
func dumpRows[T any](rows []T, aggregates ...any) string {
	var b strings.Builder
	for _, r := range rows {
		dumpf(&b, "%+v", r)
	}
	dumpf(&b, "%v", aggregates)
	return b.String()
}

// dumpRuns prints each collected run's engine outputs: RunStats and Summary
// in full, and the event log as its length plus the SHA-256 of its fields,
// so a drift names the run and the artifact without logging every event.
func dumpRuns(runs []*Run) string {
	var b strings.Builder
	for _, r := range runs {
		h := sha256.New()
		var buf []byte
		for _, e := range r.Events {
			buf = buf[:0]
			for _, v := range []uint64{uint64(e.Kind), e.Time, e.Trace, uint64(e.Size), uint64(e.Module), e.Head, uint64(e.Proc)} {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			h.Write(buf)
		}
		dumpf(&b, "%s stats %+v", r.Profile.Name, r.Stats)
		dumpf(&b, "%s summary %+v", r.Profile.Name, r.Summary)
		dumpf(&b, "%s events %d %x", r.Profile.Name, len(r.Events), h.Sum(nil))
	}
	return b.String()
}

func dumpFigure9(res Figure9Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		dumpf(&b, "%s %v %v %v %d %v %v %v", r.Name, r.Suite, r.CapacityKB,
			r.UnifiedMissRate, r.UnifiedMisses, r.Reductions, r.Eliminated, r.Configs)
	}
	dumpf(&b, "spec %v interactive %v configs %v", res.SpecAvg, res.InteractAvg, res.Configs)
	return b.String()
}

func dumpFigure11(res Figure11Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		dumpf(&b, "%s %v %v", r.Name, r.Suite, r.Ratio)
	}
	dumpf(&b, "geo %v spec %v interactive %v worst %s best %s",
		res.GeoMean, res.SpecGeoMean, res.InteractGeoMean, res.Worst, res.Best)
	return b.String()
}

func dumpCycleImpact(rows []CycleImpactRow) string {
	var b strings.Builder
	for _, r := range rows {
		dumpf(&b, "%s %v %d %v", r.Name, r.Suite, r.Eliminated, r.ReductionPct)
	}
	return b.String()
}

func dumpSweep(res SweepResult, links []ProbationLink) string {
	var b strings.Builder
	for _, p := range append(res.Points, res.Best) {
		dumpf(&b, "%v %v %v %d %v %v", p.Nursery, p.Probation, p.Persistent,
			p.Threshold, p.PromoteOnAccess, p.AvgReduction)
	}
	for _, l := range links {
		dumpf(&b, "link %v %d %v %v %d", l.ProbationFrac, l.BestThreshold, l.AvgAtBest, l.AvgAtWorst, l.WorstThreshold)
	}
	return b.String()
}

func dumpAblations(rows []AblationRow) string {
	var b strings.Builder
	for _, r := range rows {
		dumpf(&b, "%s %v", r.Name, r.AvgReduction)
	}
	return b.String()
}

func dumpCapacitySweep(points []CapacityPoint) string {
	var b strings.Builder
	for _, p := range points {
		dumpf(&b, "%v %v %v %v", p.CapFrac, p.UnifiedMissRate, p.GenMissRate, p.AvgReduction)
	}
	return b.String()
}

func dumpRobustness(res RobustnessResult) string {
	var b strings.Builder
	for _, p := range res.Points {
		dumpf(&b, "%d %v %d", p.SeedOffset, p.AvgReduction, p.Benchmarks)
	}
	dumpf(&b, "mean %v std %v allwin %v", res.Mean, res.StdDev, res.AllWin)
	return b.String()
}

func dumpAdaptive(rows []VsStatic) string {
	var b strings.Builder
	for _, r := range rows {
		dumpf(&b, "%s %v %v best %d worst %d adaptive %v resizes %d reverted %d beats %v within %v",
			r.Name, r.Configs, r.Static, r.BestStatic, r.WorstStatic,
			r.Online, r.Moves, r.Reverted, r.BeatsWorst, r.WithinBest)
	}
	return b.String()
}

func dumpPolicySelection(rows []PolicySelectRow) string {
	var b strings.Builder
	for _, r := range rows {
		dumpf(&b, "%s %v %v best %d worst %d selector %v switches %d reverted %d final %s causes %v beats %v within %v",
			r.Name, r.Configs, r.Static, r.BestStatic, r.WorstStatic,
			r.Online, r.Moves, r.Reverted, r.Final, r.Causes, r.BeatsWorst, r.WithinBest)
	}
	return b.String()
}
