package core

import (
	"testing"

	"repro/internal/codecache"
	"repro/internal/obs"
)

// TestGraphName: the experiment label renders the graph's shape — unified
// graphs by their policy, multi-tier graphs by kind, percentages, per-tier
// policies and the threshold of the last gated edge.
func TestGraphName(t *testing.T) {
	for _, tc := range []struct {
		layout   string
		shared   bool
		adaptive bool
		want     string
	}{
		{layout: "100", want: "unified/pseudo-circular"},
		{layout: "100@lru", want: "unified/lru"},
		{layout: "100@auto", want: "unified/auto"},
		{layout: "50-50", want: "generational/50-50@0"},
		{layout: "45-10-45@1", want: "generational/45-10-45@1"},
		{layout: "25-25-25-25", want: "generational/25-25-25-25@0"},
		{layout: "25-25-25-25@2,3", want: "generational/25-25-25-25@3"},
		{layout: "30@lru-10-20-40@1,2", want: "generational/30@lru-10-20-40@2"},
		{layout: "50-50", adaptive: true, want: "generational-adaptive/50-50@0"},
		{layout: "45-10-45@1", shared: true, want: "generational-shared/45-10-45@1"},
		{layout: "25-25-25-25@4", shared: true, adaptive: true, want: "generational-shared-adaptive/25-25-25-25@4"},
	} {
		spec, err := ParseTierSpec(tc.layout, 4000)
		if err != nil {
			t.Fatalf("%s: %v", tc.layout, err)
		}
		if tc.adaptive {
			spec.Adaptive = &AdaptiveConfig{}
		}
		var g *Graph
		if tc.shared {
			g, err = NewGraphShared(spec, NewSharedPersistent(4000, nil, nil), 0, nil)
		} else {
			g, err = NewGraph(spec, nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.layout, err)
		}
		if got := g.Name(); got != tc.want {
			t.Errorf("%s (shared %v, adaptive %v): name %q, want %q", tc.layout, tc.shared, tc.adaptive, got, tc.want)
		}
	}
}

// TestGraphThresholdGate: on a four-tier chain, a victim leaving a gated
// tier promotes when it was accessed at least Threshold times while
// resident there and dies otherwise; Threshold 0 promotes every victim.
func TestGraphThresholdGate(t *testing.T) {
	third := levelFor(2, 4)
	for _, tc := range []struct {
		layout   string
		hits     int
		promoted bool
	}{
		{layout: "25-25-25-25", hits: 0, promoted: true},
		{layout: "25-25-25-25@3", hits: 0, promoted: false},
		{layout: "25-25-25-25@3", hits: 2, promoted: false},
		{layout: "25-25-25-25@3", hits: 3, promoted: true},
		{layout: "25-25-25-25@3", hits: 5, promoted: true},
	} {
		spec, err := ParseTierSpec(tc.layout, 400)
		if err != nil {
			t.Fatal(err)
		}
		var promotes, deaths int
		g, err := NewGraph(spec, obs.Func(func(e obs.Event) {
			if e.From != LevelProbation {
				return
			}
			switch e.Kind {
			case obs.KindPromote:
				promotes++
			case obs.KindEvict:
				deaths++
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		// 100-byte traces: every tier holds exactly one.
		insert := func(id uint64) {
			t.Helper()
			if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
				t.Fatal(err)
			}
		}
		insert(1)
		insert(2) // the ungated nursery edge moves 1 to probation
		if l, ok := g.Where(1); !ok || l != LevelProbation {
			t.Fatalf("%s: trace 1 in %v (resident %v), want probation", tc.layout, l, ok)
		}
		for i := 0; i < tc.hits; i++ {
			if !g.Access(1) {
				t.Fatalf("%s: probation trace missed", tc.layout)
			}
		}
		insert(3) // 2 enters probation and pushes 1 across the gated edge
		l, ok := g.Where(1)
		if tc.promoted {
			if !ok || l != third || promotes != 1 || deaths != 0 {
				t.Errorf("%s after %d hits: trace 1 in %v (resident %v), %d promotes, %d deaths; want promoted to %v",
					tc.layout, tc.hits, l, ok, promotes, deaths, third)
			}
		} else {
			if ok || promotes != 0 || deaths != 1 || g.Stats().ProbationDeaths != 1 {
				t.Errorf("%s after %d hits: trace 1 in %v (resident %v), %d promotes, %d deaths; want it dead",
					tc.layout, tc.hits, l, ok, promotes, deaths)
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", tc.layout, err)
		}
	}
}
