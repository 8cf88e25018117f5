package experiments

import (
	"strings"
	"testing"
)

func TestSharedVsIsolatedSavesGenerations(t *testing.T) {
	s, err := Collect(Options{Scale: 0.05, Benchmarks: []string{"gzip", "solitaire"}})
	if err != nil {
		t.Fatal(err)
	}
	const procs = 3
	rows, err := SharedVsIsolated(s, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Procs != procs {
			t.Errorf("%s: procs = %d", r.Name, r.Procs)
		}
		if r.IsolatedGens == 0 || r.SharedGens == 0 {
			t.Fatalf("%s: degenerate generation counts %+v", r.Name, r)
		}
		// The headline claim: pooling the persistent tiers yields fewer
		// aggregate trace generations than N isolated engines.
		if r.SharedGens >= r.IsolatedGens {
			t.Errorf("%s: shared generations %d not below isolated %d",
				r.Name, r.SharedGens, r.IsolatedGens)
		}
		if r.Adopted == 0 {
			t.Errorf("%s: no adoptions", r.Name)
		}
		if r.GensSaved() <= 0 {
			t.Errorf("%s: GensSaved = %v", r.Name, r.GensSaved())
		}
		// Both arms were sized to the same aggregate memory (up to the
		// per-arena flooring of the fraction split).
		diff := int64(r.IsolatedFootprintBytes) - int64(r.SharedFootprintBytes)
		if diff < 0 {
			diff = -diff
		}
		if diff > int64(procs)*3 {
			t.Errorf("%s: footprints differ: shared %d vs isolated %d",
				r.Name, r.SharedFootprintBytes, r.IsolatedFootprintBytes)
		}
		if r.SharedTier.Promotions == 0 {
			t.Errorf("%s: shared tier saw no promotions", r.Name)
		}
	}
	pin(t, "SharedVsIsolated", "afd25878526e6c0502c0a41cfe9257f441f2137bc33cb5916d2ab0a24d5df555", dumpRows(rows))
	out := RenderSharedVsIsolated(rows)
	for _, want := range []string{"gzip", "solitaire", "Adopted", "(total)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSharedVsIsolatedDeterministic(t *testing.T) {
	s, err := Collect(Options{Scale: 0.05, Benchmarks: []string{"gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	run := func() SharedVsIsolatedRow {
		rows, err := SharedVsIsolated(s, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0]
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic experiment:\n%+v\n%+v", a, b)
	}
}

func TestSharedVsIsolatedRejectsSingleProc(t *testing.T) {
	s, err := Collect(Options{Scale: 0.05, Benchmarks: []string{"gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SharedVsIsolated(s, 1); err == nil {
		t.Error("procs=1 accepted")
	}
}
