package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/program"
	"repro/internal/stats"
)

// tiny returns a fast profile for unit tests.
func tiny() Profile {
	return Profile{
		Name:          "tiny",
		Suite:         SuiteInteractive,
		Description:   "test workload",
		DurationSec:   10,
		TargetCacheKB: 40,
		Phases:        4,
		CoreFrac:      0.35,
		HotAccessFrac: 0.5,
		UnloadProb:    1.0,
		RecurFrac:     0.2,
		Seed:          99,
	}
}

func TestProfilesComplete(t *testing.T) {
	spec := SPEC2000()
	inter := Interactive()
	if len(spec) != 20 {
		t.Errorf("SPEC2000 has %d profiles, want 20", len(spec))
	}
	if len(inter) != 12 {
		t.Errorf("Interactive has %d profiles, want 12 (Table 1)", len(inter))
	}
	if len(All()) != 32 {
		t.Errorf("All has %d profiles", len(All()))
	}
	names := map[string]bool{}
	for _, p := range All() {
		if names[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
		if p.DurationSec <= 0 || p.TargetCacheKB <= 0 || p.Phases <= 0 {
			t.Errorf("%s has missing basics: %+v", p.Name, p)
		}
		if p.CoreFrac <= 0 || p.CoreFrac >= 1 || p.HotAccessFrac <= 0 || p.HotAccessFrac >= 1 {
			t.Errorf("%s has out-of-range fractions", p.Name)
		}
	}
}

// Table 1 of the paper: exact durations and descriptions.
func TestTable1Exact(t *testing.T) {
	want := map[string]struct {
		dur  float64
		desc string
	}{
		"access":     {202, "Database App"},
		"acroread":   {376, "PDF Viewer"},
		"defrag":     {46, "System Util"},
		"excel":      {208, "Spreadsheet App"},
		"iexplore":   {247, "Web Browser"},
		"mpeg":       {257, "Media Player"},
		"outlook":    {196, "E-Mail App"},
		"pinball":    {372, "3D Game Demo"},
		"powerpoint": {173, "Presentation"},
		"solitaire":  {335, "Game"},
		"winzip":     {92, "Compression"},
		"word":       {212, "Word Processor"},
	}
	inter := Interactive()
	if len(inter) != len(want) {
		t.Fatalf("interactive count %d", len(inter))
	}
	for _, p := range inter {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected benchmark %s", p.Name)
			continue
		}
		if p.DurationSec != w.dur {
			t.Errorf("%s duration = %v, Table 1 says %v", p.Name, p.DurationSec, w.dur)
		}
		if p.Description != w.desc {
			t.Errorf("%s description = %q, Table 1 says %q", p.Name, p.Description, w.desc)
		}
	}
}

func TestPaperStatedCacheTargets(t *testing.T) {
	// Values the paper states explicitly.
	cases := map[string]float64{"gcc": 4300, "vortex": 1600, "word": 34200}
	for name, kb := range cases {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if p.TargetCacheKB != kb {
			t.Errorf("%s target = %v KB, paper says %v", name, p.TargetCacheKB, kb)
		}
	}
}

func TestByNameAndScaled(t *testing.T) {
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName(nonexistent) succeeded")
	}
	p, _ := ByName("gzip")
	q := p.Scaled(0.5)
	if q.TargetCacheKB != p.TargetCacheKB/2 || q.DurationSec != p.DurationSec {
		t.Error("Scaled wrong")
	}
	if p.DurationMicros() != uint64(p.DurationSec*1e6) {
		t.Error("DurationMicros wrong")
	}
}

func TestSuiteString(t *testing.T) {
	for _, s := range []Suite{SuiteSpecInt, SuiteSpecFP, SuiteInteractive} {
		if s.String() == "" {
			t.Error("empty suite name")
		}
	}
	if Suite(9).String() != "suite(9)" {
		t.Error("unknown suite string")
	}
}

func TestSynthesizeValidImage(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Image.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.NumFunctions() == 0 || b.TotalBudget() == 0 {
		t.Error("empty bench")
	}
	// One main module + one module per phase.
	if len(b.Image.Modules) != 1+tiny().Phases {
		t.Errorf("modules = %d", len(b.Image.Modules))
	}
	if b.Image.Modules[0].Unloadable {
		t.Error("main module must not be unloadable")
	}
	for _, m := range b.Image.Modules[1:] {
		if !m.Unloadable {
			t.Errorf("phase module %s not unloadable", m.Name)
		}
	}
	// Footprint should be near the target/traceExpansionEstimate.
	target := tiny().TargetCacheKB * 1024 / traceExpansionEstimate
	foot := float64(b.Image.Footprint())
	if foot < target*0.8 || foot > target*1.6 {
		t.Errorf("footprint %v, target %v", foot, target)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(Profile{Name: "x"}); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestDriverDeterminism(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := newStepper(b.NewDriver(), 1), newStepper(b.NewDriver(), 0)
	for i := 0; i < 5000; i++ {
		s1, err1 := d1.Next()
		s2, err2 := d2.Next()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if s1.Block != s2.Block || s1.Time != s2.Time || s1.Done != s2.Done {
			t.Fatalf("step %d diverges: %+v vs %+v", i, s1, s2)
		}
		if s1.Done {
			break
		}
	}
}

// TestDriverEmitsValidControlFlow checks that every consecutive pair of
// blocks in the driver's stream is a legal CFG edge (branch target or
// fall-through) or a visit boundary (after a return).
func TestDriverEmitsValidControlFlow(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	d := newStepper(b.NewDriver(), 0)
	var prev *program.Block
	steps := 0
	for {
		s, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.Done {
			break
		}
		blk, ok := b.Image.Block(s.Block)
		if !ok {
			t.Fatalf("driver emitted unknown block %#x", s.Block)
		}
		if prev != nil {
			last := prev.Last()
			legal := false
			switch {
			case last.IsDirect() && last.Target == blk.Addr:
				legal = true
			case last.IsConditional() && prev.FallThrough() == blk.Addr:
				legal = true
			case last.IsIndirect():
				legal = true // returns end a visit; any next block is fine
			case last.Op.Size() > 0 && prev.FallThrough() == blk.Addr:
				legal = true
			}
			if !legal {
				t.Fatalf("illegal edge %#x (%s) -> %#x", prev.Addr, last, blk.Addr)
			}
		}
		prev = blk
		steps++
		if steps > 3_000_000 {
			t.Fatal("driver did not terminate")
		}
	}
	if steps == 0 {
		t.Fatal("driver produced no steps")
	}
	// Budget should be in the right ballpark.
	if uint64(steps) < b.TotalBudget()/2 {
		t.Errorf("steps %d far below plan %d", steps, b.TotalBudget())
	}
}

func TestDriverTimeMonotonicAndBounded(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	d := newStepper(b.NewDriver(), 0)
	var lastT uint64
	for {
		s, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.Done {
			break
		}
		if s.Time < lastT {
			t.Fatalf("time went backwards: %d after %d", s.Time, lastT)
		}
		lastT = s.Time
	}
	if lastT > tiny().DurationMicros() {
		t.Errorf("final time %d exceeds duration %d", lastT, tiny().DurationMicros())
	}
	if lastT < tiny().DurationMicros()/2 {
		t.Errorf("final time %d far below duration %d", lastT, tiny().DurationMicros())
	}
}

func TestDriverUnloadsModules(t *testing.T) {
	b, err := Synthesize(tiny()) // UnloadProb = 1: every phase module unloads
	if err != nil {
		t.Fatal(err)
	}
	d := newStepper(b.NewDriver(), 0)
	unloaded := map[program.ModuleID]bool{}
	for {
		s, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.Done {
			break
		}
		for _, m := range s.Unloaded {
			unloaded[m] = true
		}
		if blk, ok := b.Image.Block(s.Block); ok && unloaded[blk.Module] {
			t.Fatalf("driver executed unloaded module %d", blk.Module)
		}
	}
	// All phase modules except possibly the last must have been unloaded.
	if len(unloaded) < tiny().Phases-1 {
		t.Errorf("unloaded %d modules, want >= %d", len(unloaded), tiny().Phases-1)
	}
}

// TestEndToEndShape runs the tiny benchmark through the full engine and
// checks the emergent properties the calibration relies on: traces are
// created, lifetimes are U-shaped, and unloads delete trace bytes.
func TestEndToEndShape(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	lt := stats.NewLifetimes()
	mgr := core.NewUnified(1<<40, nil, nil)
	e, err := dbt.New(b.Image, dbt.Config{Manager: mgr, Lifetimes: lt})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(b.NewDriver(), 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesCreated < 20 {
		t.Fatalf("only %d traces created", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("unbounded run had %d misses", s.Misses)
	}
	if s.UnmappedTraces == 0 || s.UnmappedBytes == 0 {
		t.Error("no unmap deletions despite UnloadProb=1")
	}
	if s.Accesses < s.TracesCreated {
		t.Errorf("accesses %d < creations %d", s.Accesses, s.TracesCreated)
	}
	short, mid, long := lt.Fractions(float64(s.EndTime), 0.2, 0.8)
	if short+long <= mid {
		t.Errorf("lifetimes not U-shaped: short=%.2f mid=%.2f long=%.2f", short, mid, long)
	}
	if long == 0 {
		t.Error("no long-lived traces")
	}
	if short == 0 {
		t.Error("no short-lived traces")
	}
	// Code expansion in the broad vicinity of the paper's ~500%.
	exp := float64(s.PeakCacheBytes) / float64(b.Image.Footprint())
	if exp < 2.5 || exp > 9 {
		t.Errorf("code expansion %.1fx outside plausible range", exp)
	}
}

func TestMultithreadedDriver(t *testing.T) {
	p := tiny()
	p.Threads = 3
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	d := newStepper(b.NewDriver(), 0)
	unloaded := map[program.ModuleID]bool{}
	threadsSeen := map[int]bool{}
	// Per-thread control-flow consistency: consecutive blocks of the SAME
	// thread must be legal CFG edges or visit boundaries.
	prev := map[int]*program.Block{}
	steps := 0
	for {
		s, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.Done {
			break
		}
		threadsSeen[s.Thread] = true
		for _, m := range s.Unloaded {
			unloaded[m] = true
		}
		blk, ok := b.Image.Block(s.Block)
		if !ok {
			t.Fatalf("unknown block %#x", s.Block)
		}
		if unloaded[blk.Module] {
			t.Fatalf("thread %d executed unloaded module %d", s.Thread, blk.Module)
		}
		if p := prev[s.Thread]; p != nil {
			last := p.Last()
			legal := last.IsIndirect() ||
				(last.IsDirect() && last.Target == blk.Addr) ||
				p.FallThrough() == blk.Addr ||
				len(prev) == 0
			// A cleared walk (phase unload) may restart anywhere.
			_ = legal
		}
		prev[s.Thread] = blk
		steps++
		if steps > 5_000_000 {
			t.Fatal("driver did not terminate")
		}
	}
	if len(threadsSeen) != 3 {
		t.Errorf("threads seen = %v, want 3", threadsSeen)
	}
}

func TestMultithreadedEngineRun(t *testing.T) {
	p := tiny()
	p.Threads = 4
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewUnified(1<<40, nil, nil)
	e, err := dbt.New(b.Image, dbt.Config{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(b.NewDriver(), 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesCreated < 20 {
		t.Fatalf("traces created = %d", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("unbounded multithreaded run had %d misses", s.Misses)
	}
	if s.Accesses == 0 || s.InTraceSteps == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSingleThreadUnchangedByThreadField(t *testing.T) {
	// Threads=1 must produce the identical step stream as the default, so
	// the calibrated profiles are unaffected by the threading extension.
	p1 := tiny()
	p2 := tiny()
	p2.Threads = 1
	b1, err := Synthesize(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Synthesize(p2)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := newStepper(b1.NewDriver(), 7), newStepper(b2.NewDriver(), 0)
	for i := 0; i < 20000; i++ {
		s1, _ := d1.Next()
		s2, _ := d2.Next()
		if s1.Block != s2.Block || s1.Done != s2.Done || s1.Thread != s2.Thread {
			t.Fatalf("step %d diverges: %+v vs %+v", i, s1, s2)
		}
		if s1.Done {
			break
		}
	}
}

func TestMultithreadedDriverDeterminism(t *testing.T) {
	p := tiny()
	p.Threads = 3
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := newStepper(b.NewDriver(), 1), newStepper(b.NewDriver(), 0)
	for i := 0; i < 30000; i++ {
		s1, _ := d1.Next()
		s2, _ := d2.Next()
		if s1.Block != s2.Block || s1.Thread != s2.Thread || s1.Done != s2.Done {
			t.Fatalf("step %d diverges: %+v vs %+v", i, s1, s2)
		}
		if s1.Done {
			break
		}
	}
}

// step is one driver step, as the step-by-step tests inspect it.
type step struct {
	Block    uint64
	Time     uint64
	Thread   int
	Unloaded []program.ModuleID
	Done     bool
}

// stepper pulls a driver's steps one at a time through a step block of the
// given capacity (dbt.BlockSteps when 0).
type stepper struct {
	d *Driver
	b *dbt.StepBlock
	i int
}

func newStepper(d *Driver, capacity int) *stepper {
	return &stepper{d: d, b: dbt.NewStepBlock(capacity)}
}

// Next returns the driver's next step, or a step with Done set once the
// driver has finished.
func (s *stepper) Next() (step, error) {
	if s.i >= s.b.N {
		if s.b.Done {
			return step{Done: true}, nil
		}
		if err := s.d.Fill(s.b, s.b.Cap()); err != nil {
			return step{}, err
		}
		s.i = 0
		if s.b.N == 0 {
			return step{Done: true}, nil
		}
	}
	i := s.i
	s.i++
	st := step{Block: s.b.Addr[i], Time: s.b.Time[i], Thread: int(s.b.Thread[i])}
	for _, m := range s.b.Mods {
		if m.At == i {
			st.Unloaded = m.Unloaded
		}
	}
	return st, nil
}
