package dbt

import (
	"bytes"
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// buildLoopProgram: a counted loop that runs iters times, then exits.
func buildLoopProgram(t *testing.T, iters int64) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	m := b.Module("main", false)
	fb, mainFn := m.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: iters})
	loop := fb.NewBlock()
	fb.Jmp(loop)
	fb.StartBlock(loop)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmp, Rs1: 1, Rs2: 2})
	fb.Jcc(isa.CondLT, loop)
	fb.Block()
	fb.Halt()
	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func runUnderEngine(t *testing.T, img *program.Image, cfg Config) (*Process, *vm.Machine) {
	t.Helper()
	if cfg.Manager == nil {
		cfg.Manager = core.NewUnified(1<<20, nil, nil)
	}
	e, err := New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(VMGuest{M: m}, 0); err != nil {
		t.Fatal(err)
	}
	return e, m
}

func TestLoopCreatesOneTrace(t *testing.T) {
	img := buildLoopProgram(t, 500)
	e, m := runUnderEngine(t, img, Config{HotThreshold: 50})
	if !m.Halted() {
		t.Fatal("guest did not finish")
	}
	s := e.Stats()
	if s.TracesCreated != 1 {
		t.Fatalf("traces created = %d, want 1 (the loop body)", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("misses = %d", s.Misses)
	}
	// The loop self-links: after the single dispatch entry, iterations stay
	// inside the trace, so accesses ~ 1.
	if s.Accesses != 1 {
		t.Errorf("accesses = %d, want 1 (self-linked loop)", s.Accesses)
	}
	if s.InTraceSteps < 400 {
		t.Errorf("in-trace steps = %d, want most of the 500 iterations", s.InTraceSteps)
	}
	// The trace head must be the loop block.
	entry := img.MustBlock(img.Entry)
	loopAddr := entry.Last().Target
	if _, ok := e.TraceFor(loopAddr); !ok {
		t.Error("no trace at loop head")
	}
	if s.BBCopied == 0 || s.BBBytes == 0 {
		t.Error("basic blocks were not copied")
	}
	if s.PeakCacheBytes == 0 || s.FinalCacheBytes == 0 {
		t.Error("cache size accounting missing")
	}
}

func TestThresholdRespected(t *testing.T) {
	// 40 iterations with threshold 50: no trace.
	img := buildLoopProgram(t, 40)
	e, _ := runUnderEngine(t, img, Config{HotThreshold: 50})
	if s := e.Stats(); s.TracesCreated != 0 {
		t.Errorf("traces created = %d, want 0", s.TracesCreated)
	}
	// Same program with threshold 10: trace appears.
	e2, _ := runUnderEngine(t, img, Config{HotThreshold: 10})
	if s := e2.Stats(); s.TracesCreated != 1 {
		t.Errorf("traces created = %d, want 1", s.TracesCreated)
	}
}

func TestEngineMatchesInterpreter(t *testing.T) {
	// The engine observes but must not perturb execution: a plain VM run
	// and an engine-driven run end in identical architectural state.
	img := buildLoopProgram(t, 300)
	_, m1 := runUnderEngine(t, img, Config{HotThreshold: 20})
	m2 := vm.New(img)
	if _, err := m2.Run(0); err != nil {
		t.Fatal(err)
	}
	if m1.Regs != m2.Regs {
		t.Errorf("register files differ:\n%v\n%v", m1.Regs, m2.Regs)
	}
	if m1.InstCount != m2.InstCount || m1.BlockCount != m2.BlockCount {
		t.Errorf("execution counts differ: %d/%d vs %d/%d",
			m1.InstCount, m1.BlockCount, m2.InstCount, m2.BlockCount)
	}
}

// buildTwoPhaseProgram runs loop A for itersA, loads a DLL, runs its loop
// for itersB, unloads the DLL, then repeats loop A briefly.
func buildTwoPhaseProgram(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	m := b.Module("main", false)
	dll := b.Module("plugin", true)

	pb, pluginFn := dll.Function("plugin")
	pb.Block()
	pb.I(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 0})
	ploop := pb.NewBlock()
	pb.Jmp(ploop)
	pb.StartBlock(ploop)
	pb.I(isa.Inst{Op: isa.OpAddImm, Rd: 3, Rs1: 3, Imm: 1})
	pb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 3, Imm: 200})
	pb.Jcc(isa.CondLT, ploop)
	pb.Block()
	pb.Ret()

	fb, mainFn := m.Function("main")
	// Loop A.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	aloop := fb.NewBlock()
	fb.Jmp(aloop)
	fb.StartBlock(aloop)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 300})
	fb.Jcc(isa.CondLT, aloop)
	// Call plugin.
	fb.Block()
	fb.Call(pluginFn)
	// Unload plugin.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 1})
	fb.Syscall(isa.SysUnloadModule)
	// Loop A again, briefly.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	bloop := fb.NewBlock()
	fb.Jmp(bloop)
	fb.StartBlock(bloop)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 100})
	fb.Jcc(isa.CondLT, bloop)
	fb.Block()
	fb.Halt()

	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestModuleUnloadForcesEviction(t *testing.T) {
	img := buildTwoPhaseProgram(t)
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "twophase"})
	if err != nil {
		t.Fatal(err)
	}
	lt := stats.NewLifetimes()
	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{Manager: mgr, HotThreshold: 50, Log: w, Lifetimes: lt})
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(VMGuest{M: m}, 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesCreated < 3 {
		t.Fatalf("traces created = %d, want >= 3 (loop A, plugin loop, loop B)", s.TracesCreated)
	}
	if s.UnmappedTraces != 1 {
		t.Fatalf("unmapped traces = %d, want 1 (the plugin loop)", s.UnmappedTraces)
	}
	if s.UnmappedBytes == 0 {
		t.Error("unmapped bytes not counted")
	}

	// The emitted log replays cleanly and shows the unmap.
	h, events, err := tracelog.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Benchmark != "twophase" {
		t.Errorf("header = %+v", h)
	}
	sum := tracelog.Summarize(h, events)
	if sum.Creates != s.TracesCreated {
		t.Errorf("log creates %d != engine %d", sum.Creates, s.TracesCreated)
	}
	if sum.Unmaps != 1 || sum.UnmappedBytes != s.UnmappedBytes {
		t.Errorf("log unmaps %d/%d, engine %d", sum.Unmaps, sum.UnmappedBytes, s.UnmappedBytes)
	}
	if lt.Len() != int(s.TracesCreated) {
		t.Errorf("lifetimes tracked %d, want %d", lt.Len(), s.TracesCreated)
	}
}

// buildAlternatingLoops builds an outer loop that alternates two inner
// loops, generating a steady stream of dispatch accesses to two traces.
func buildAlternatingLoops(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	mod := b.Module("main", false)
	fb, mainFn := mod.Function("main")

	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 5, Imm: 0}) // outer counter
	outer := fb.NewBlock()
	fb.Jmp(outer)

	// Loop 1.
	fb.StartBlock(outer)
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	l1 := fb.NewBlock()
	fb.Jmp(l1)
	fb.StartBlock(l1)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 60})
	fb.Jcc(isa.CondLT, l1)

	// Loop 2.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 0})
	l2 := fb.NewBlock()
	fb.Jmp(l2)
	fb.StartBlock(l2)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 2, Rs1: 2, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 2, Imm: 60})
	fb.Jcc(isa.CondLT, l2)

	// Outer loop back edge.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 5, Rs1: 5, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 5, Imm: 20})
	fb.Jcc(isa.CondLT, outer)
	fb.Block()
	fb.Halt()
	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestConflictMissesWithTinyCache(t *testing.T) {
	// A trace cache too small for both loop traces forces regeneration
	// when control alternates between them.
	img := buildAlternatingLoops(t)

	// First run unbounded to learn trace sizes.
	big := core.NewUnified(1<<20, nil, nil)
	e1, _ := runUnderEngine(t, img, Config{Manager: big, HotThreshold: 20})
	if e1.Stats().Misses != 0 {
		t.Fatalf("unbounded run missed %d times", e1.Stats().Misses)
	}
	traceBytes := e1.Stats().TraceBytes
	if traceBytes == 0 {
		t.Fatal("no traces created")
	}

	// Now a cache that holds roughly one of the traces.
	tiny := core.NewUnified(traceBytes/3, nil, nil)
	e2, _ := runUnderEngine(t, img, Config{Manager: tiny, HotThreshold: 20})
	s := e2.Stats()
	if s.Misses == 0 {
		t.Fatalf("tiny cache produced no conflict misses (accesses %d)", s.Accesses)
	}
	if s.Regens != s.Misses {
		t.Errorf("regens %d != misses %d", s.Regens, s.Misses)
	}
	if e2.Overhead().TraceGens <= e1.Overhead().TraceGens {
		t.Error("regenerations should add trace-generation cost")
	}
}

func TestEngineErrors(t *testing.T) {
	img := buildLoopProgram(t, 10)
	if _, err := New(img, Config{}); err == nil {
		t.Error("engine without manager accepted")
	}
	e, err := New(img, Config{Manager: core.NewUnified(1000, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.observe(step{Block: 0xdead}); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestMaxBlocksBudget(t *testing.T) {
	img := buildLoopProgram(t, 1_000_000)
	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{Manager: mgr, HotThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(VMGuest{M: m}, 5000); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Blocks != 5000 {
		t.Errorf("blocks = %d, want exactly the budget", s.Blocks)
	}
}

func TestFragmentOfMapping(t *testing.T) {
	img := buildLoopProgram(t, 200)
	mgr := core.NewUnified(1<<20, nil, nil)
	e, _ := runUnderEngine(t, img, Config{Manager: mgr, HotThreshold: 20})
	entry := img.MustBlock(img.Entry)
	tr, ok := e.TraceFor(entry.Last().Target)
	if !ok {
		t.Fatal("no loop trace")
	}
	var frag codecache.Fragment
	frag = e.fragmentOf(tr)
	if frag.ID != tr.ID || frag.Size != uint64(tr.Size()) || frag.HeadAddr != tr.Head {
		t.Errorf("fragment = %+v for trace %+v", frag, tr)
	}
}

func TestExceptionPinning(t *testing.T) {
	// Alternating loops generate a steady dispatch-access stream; periodic
	// exceptions pin the entered trace, and the pseudo-circular sweep must
	// never evict it while pinned.
	img := buildAlternatingLoops(t)
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{
		Manager:              mgr,
		HotThreshold:         10, // hot quickly
		Log:                  w,
		ExceptionInterval:    5,
		ExceptionPinAccesses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(VMGuest{M: m}, 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Exceptions == 0 {
		t.Fatal("no exceptions simulated")
	}
	// The log must contain matching pin events that replay cleanly.
	h, events, err := tracelog.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pins, unpins int
	for _, ev := range events {
		switch ev.Kind {
		case tracelog.KindPin:
			pins++
		case tracelog.KindUnpin:
			unpins++
		}
	}
	if uint64(pins) != s.Exceptions {
		t.Errorf("log has %d pins, engine says %d exceptions", pins, s.Exceptions)
	}
	if unpins > pins {
		t.Errorf("more unpins (%d) than pins (%d)", unpins, pins)
	}
	_ = h
}

func TestOptimizedTracesAreSmaller(t *testing.T) {
	// A loop whose body carries redundancy: nops, a self-move, and a
	// foldable constant chain.
	b := program.NewBuilder()
	mod := b.Module("main", false)
	fb, mainFn := mod.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	loop := fb.NewBlock()
	fb.Jmp(loop)
	fb.StartBlock(loop)
	fb.I(isa.Inst{Op: isa.OpNop})
	fb.I(isa.Inst{Op: isa.OpMov, Rd: 6, Rs1: 6})
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 7, Imm: 5})
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 7, Rs1: 7, Imm: 3})
	fb.I(isa.Inst{Op: isa.OpStore, Rs1: 2, Rs2: 7})
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 200})
	fb.Jcc(isa.CondLT, loop)
	fb.Block()
	fb.Halt()
	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := runUnderEngine(t, img, Config{HotThreshold: 20})
	opt, _ := runUnderEngine(t, img, Config{HotThreshold: 20, Optimize: true})
	sp, so := plain.Stats(), opt.Stats()
	if sp.TracesCreated != so.TracesCreated {
		t.Fatalf("trace counts differ: %d vs %d", sp.TracesCreated, so.TracesCreated)
	}
	if so.TraceBytes > sp.TraceBytes {
		t.Errorf("optimizer grew traces: %d vs %d", so.TraceBytes, sp.TraceBytes)
	}
	if so.OptimizedBytes != sp.TraceBytes-so.TraceBytes {
		t.Errorf("OptimizedBytes %d inconsistent with %d-%d", so.OptimizedBytes, sp.TraceBytes, so.TraceBytes)
	}
	// These synthetic loops carry constant setup code, so at least some
	// instructions should have been optimized away.
	if so.OptimizedInsts == 0 {
		t.Error("optimizer removed nothing from loop traces")
	}
}

func TestTraceLinking(t *testing.T) {
	// Alternating loops: trace A's exit flows into trace B's head and vice
	// versa, so the engine must record direct links between them.
	img := buildAlternatingLoops(t)
	e, _ := runUnderEngine(t, img, Config{HotThreshold: 10})
	s := e.Stats()
	if s.LinksCreated == 0 {
		t.Fatal("no trace links created")
	}
	if err := e.Links().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// With a tiny cache the traces evict each other; each rediscovered
	// eviction must sever that trace's links.
	unbounded := e.Stats().TraceBytes
	tiny := core.NewUnified(unbounded/3, nil, nil)
	e2, _ := runUnderEngine(t, img, Config{Manager: tiny, HotThreshold: 10})
	s2 := e2.Stats()
	if s2.Misses == 0 {
		t.Fatal("tiny cache had no misses")
	}
	if s2.LinksBroken == 0 {
		t.Error("evictions broke no links")
	}
	if err := e2.Links().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnloadBreaksLinks(t *testing.T) {
	img := buildTwoPhaseProgram(t)
	e, _ := runUnderEngine(t, img, Config{HotThreshold: 10})
	s := e.Stats()
	if s.UnmappedTraces == 0 {
		t.Fatal("no unmapped traces")
	}
	// The plugin trace was entered from main's code and returned into it;
	// whether links formed depends on dispatch adjacency, but the table
	// must stay consistent after the unload either way.
	if err := e.Links().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedThreads drives two guest threads through the same loop in
// alternating steps: per-thread contexts must keep trace-following straight,
// both threads may race to record the same head, and exactly one trace per
// head may materialize.
func TestInterleavedThreads(t *testing.T) {
	img := buildLoopProgram(t, 1000) // built walk reused manually below
	entry := img.MustBlock(img.Entry)
	loopAddr := entry.Last().Target
	loopBlk := img.MustBlock(loopAddr)
	exitAddr := loopBlk.FallThrough()

	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{Manager: mgr, HotThreshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	step := func(thread int, addr uint64) {
		t.Helper()
		if err := e.observe(step{Block: addr, Thread: thread}); err != nil {
			t.Fatal(err)
		}
	}
	// Both threads enter the function, then alternate loop iterations.
	step(0, entry.Addr)
	step(1, entry.Addr)
	for i := 0; i < 200; i++ {
		step(0, loopAddr)
		step(1, loopAddr)
	}
	step(0, exitAddr)
	step(1, exitAddr)

	s := e.Stats()
	if s.TracesCreated != 1 {
		t.Fatalf("traces created = %d, want exactly 1 for the shared head", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("misses = %d", s.Misses)
	}
	// Both threads executed inside the trace.
	if s.InTraceSteps < 300 {
		t.Errorf("in-trace steps = %d", s.InTraceSteps)
	}
	// The duplicate-recording race: at threshold crossing both threads can
	// start recordings; at most one materializes, the rest abort.
	if s.TracesCreated+s.RecordingAborted < 1 {
		t.Errorf("bookkeeping wrong: %+v", s)
	}
	if _, ok := e.TraceFor(loopAddr); !ok {
		t.Error("no trace at shared loop head")
	}
}

func TestMaxTraceBlocksVariations(t *testing.T) {
	// The engine must behave sanely across trace-length limits, including
	// degenerate ones.
	img := buildAlternatingLoops(t)
	var prevCreated uint64
	for _, max := range []int{2, 4, 8, 64} {
		e, _ := runUnderEngine(t, img, Config{HotThreshold: 10, MaxTraceBlocks: max})
		s := e.Stats()
		if s.TracesCreated == 0 {
			t.Fatalf("max=%d: no traces", max)
		}
		if s.Misses != 0 {
			t.Errorf("max=%d: unbounded run missed", max)
		}
		_ = prevCreated
		prevCreated = s.TracesCreated
		if err := e.Links().CheckInvariants(); err != nil {
			t.Fatalf("max=%d: %v", max, err)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	// Identical guests and configs must produce identical stats.
	img := buildTwoPhaseProgram(t)
	run := func() RunStats {
		mgr := core.NewUnified(4096, nil, nil)
		e, err := New(img, Config{Manager: mgr, HotThreshold: 10})
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(img)
		if err := e.Run(VMGuest{M: m}, 0); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic engine:\n%+v\n%+v", a, b)
	}
}

// buildPluginLoop builds an executable with one straight-line block and a
// plugin module holding a self-looping block: the smallest image with a
// module to unload and a trace head inside it.
func buildPluginLoop(t *testing.T) (img *program.Image, exe, loop *program.Block) {
	t.Helper()
	b := program.NewBuilder()
	m1 := b.Module("exe", false)
	m2 := b.Module("plugin", true)
	fb1, f1 := m1.Function("main")
	fb1.Block()
	fb1.I(isa.Inst{Op: isa.OpNop})
	fb1.Halt()
	fb2, _ := m2.Function("loop")
	l := fb2.NewBlock()
	fb2.StartBlock(l)
	fb2.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb2.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 1000})
	fb2.Jcc(isa.CondLT, l)
	fb2.Block()
	fb2.Halt()
	b.SetEntry(f1)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img, img.Modules[0].Functions[0].Blocks[0], img.Modules[1].Functions[0].Blocks[0]
}

func observeN(t *testing.T, e *Process, s step, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.observe(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBBCacheCopyIn: each block is copied into the basic-block cache once,
// at its size plus blockOverheadBytes; running it again copies nothing.
func TestBBCacheCopyIn(t *testing.T) {
	img, exe, loop := buildPluginLoop(t)
	e, err := New(img, Config{Manager: core.NewUnified(1<<20, nil, nil), HotThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	check := bbCheck(t, e)
	exeBytes := uint64(exe.Size()) + blockOverheadBytes
	loopBytes := uint64(loop.Size()) + blockOverheadBytes
	check("empty", 0, 0)
	observeN(t, e, step{Block: exe.Addr}, 1)
	check("first run", 1, exeBytes)
	observeN(t, e, step{Block: exe.Addr}, 2)
	check("reruns", 1, exeBytes)
	observeN(t, e, step{Block: loop.Addr}, 3)
	check("both run", 2, exeBytes+loopBytes)
}

// TestBBCacheDeleteModule: an unload removes exactly the module's blocks, a
// second unload of the same module removes nothing, and the unloaded blocks
// are copied afresh if they run again.
func TestBBCacheDeleteModule(t *testing.T) {
	img, exe, loop := buildPluginLoop(t)
	e, err := New(img, Config{Manager: core.NewUnified(1<<20, nil, nil), HotThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	check := bbCheck(t, e)
	exeBytes := uint64(exe.Size()) + blockOverheadBytes
	loopBytes := uint64(loop.Size()) + blockOverheadBytes
	observeN(t, e, step{Block: exe.Addr}, 1)
	observeN(t, e, step{Block: loop.Addr}, 1)
	unload := step{Block: exe.Addr, Unloaded: []program.ModuleID{loop.Module}}
	observeN(t, e, unload, 1)
	check("plugin unloaded", 2, exeBytes)
	observeN(t, e, unload, 1)
	check("plugin unloaded twice", 2, exeBytes)
	observeN(t, e, step{Block: loop.Addr}, 1)
	check("plugin rerun", 3, exeBytes+loopBytes)
}

// bbCheck returns a check of e's basic-block copy count and byte total.
func bbCheck(t *testing.T, e *Process) func(when string, copied, bytes uint64) {
	return func(when string, copied, bytes uint64) {
		t.Helper()
		if s := e.Stats(); s.BBCopied != copied || s.BBBytes != bytes {
			t.Errorf("%s: %d copies, %d bytes; want %d, %d", when, s.BBCopied, s.BBBytes, copied, bytes)
		}
	}
}

// TestHeadCounterThreshold: a trace head counts its own dispatches toward
// HotThreshold; dispatches of other blocks leave its count alone, and no
// trace is built before the count reaches the threshold.
func TestHeadCounterThreshold(t *testing.T) {
	img, exe, loop := buildPluginLoop(t)
	e, err := New(img, Config{Manager: core.NewUnified(1<<20, nil, nil), HotThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The first run of the loop block is cold; its self-branch then marks
	// it as a head and each further run counts once: 3 counts, below 5.
	observeN(t, e, step{Block: loop.Addr}, 4)
	observeN(t, e, step{Block: exe.Addr}, 10)
	if _, ok := e.TraceFor(loop.Addr); ok || e.Stats().TracesCreated != 0 {
		t.Fatalf("trace built below the threshold: %+v", e.Stats())
	}
	observeN(t, e, step{Block: loop.Addr}, 3)
	if _, ok := e.TraceFor(loop.Addr); !ok {
		t.Fatalf("no trace after the head reached the threshold: %+v", e.Stats())
	}
}

// TestHeadCounterResetsOnUnload: a trace head counts dispatches toward
// HotThreshold, and unloading its module forgets the count, exactly as when
// a DLL is unloaded and its code later rediscovered.
func TestHeadCounterResetsOnUnload(t *testing.T) {
	img, exe, loop := buildPluginLoop(t)
	e, err := New(img, Config{Manager: core.NewUnified(1<<20, nil, nil), HotThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The first run of the loop block is cold; its self-branch then marks
	// it as a head and each further run counts once: 3 counts, below 5.
	observeN(t, e, step{Block: loop.Addr}, 4)
	observeN(t, e, step{Block: exe.Addr, Unloaded: []program.ModuleID{loop.Module}}, 1)
	// Without the reset these 3 counts would reach the threshold.
	observeN(t, e, step{Block: loop.Addr}, 4)
	if _, ok := e.TraceFor(loop.Addr); ok || e.Stats().TracesCreated != 0 {
		t.Fatal("head counter survived the unload of its module")
	}
	observeN(t, e, step{Block: loop.Addr}, 3)
	if _, ok := e.TraceFor(loop.Addr); !ok {
		t.Fatalf("no trace after the head reached the threshold: %+v", e.Stats())
	}
}
