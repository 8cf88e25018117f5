package dbt_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/tracelog"
	"repro/internal/vm"
	"repro/internal/workload"
)

// blockCaps are the step-block capacities the invariance tests compare: one
// step per fill, a capacity that divides nothing in the runs, and the
// default.
var blockCaps = []int{1, 7, dbt.BlockSteps}

// outcome is everything a run produces that must not depend on the block
// capacity.
type outcome struct {
	log       []byte
	stats     dbt.RunStats
	lifetimes int
	fracs     [3]float64
}

// runCapped runs a fresh engine over the guest newGuest returns, with step
// blocks of capacity n, through Run calls bounded by each of budgets in turn
// (0 is unbounded; no budgets is one unbounded call).
func runCapped(t *testing.T, img *program.Image, n int, newGuest func() dbt.Guest, budgets ...uint64) outcome {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	lt := stats.NewLifetimes()
	e, err := dbt.New(img, dbt.Config{Manager: core.NewUnified(1<<20, nil, nil), HotThreshold: 10, Log: w, Lifetimes: lt})
	if err != nil {
		t.Fatal(err)
	}
	dbt.SetBlockSteps(e, n)
	g := newGuest()
	if len(budgets) == 0 {
		budgets = []uint64{0}
	}
	for _, max := range budgets {
		if err := e.Run(g, max); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	var o outcome
	o.log, o.stats, o.lifetimes = buf.Bytes(), s, lt.Len()
	o.fracs[0], o.fracs[1], o.fracs[2] = lt.Fractions(float64(s.EndTime), 0.2, 0.8)
	return o
}

func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if !bytes.Equal(got.log, want.log) {
		t.Errorf("%s: event log differs (%d vs %d bytes)", what, len(got.log), len(want.log))
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats differ:\n%+v\n%+v", what, got.stats, want.stats)
	}
	if got.lifetimes != want.lifetimes || got.fracs != want.fracs {
		t.Errorf("%s: lifetimes differ: %d %v vs %d %v", what, got.lifetimes, got.fracs, want.lifetimes, want.fracs)
	}
}

// buildPluginChurn builds a program that maps, runs and unmaps a plugin
// twelve times. Each round's plugin loop runs one iteration longer than the
// last, so the unload steps land at every offset of a 7-step block.
func buildPluginChurn(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	m := b.Module("main", false)
	dll := b.Module("plugin", true)

	pb, pluginFn := dll.Function("plugin")
	pb.Block()
	pb.I(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 0})
	pb.I(isa.Inst{Op: isa.OpAddImm, Rd: 4, Rs1: 2, Imm: 30})
	ploop := pb.NewBlock()
	pb.Jmp(ploop)
	pb.StartBlock(ploop)
	pb.I(isa.Inst{Op: isa.OpAddImm, Rd: 3, Rs1: 3, Imm: 1})
	pb.I(isa.Inst{Op: isa.OpCmp, Rs1: 3, Rs2: 4})
	pb.Jcc(isa.CondLT, ploop)
	pb.Block()
	pb.Ret()

	fb, mainFn := m.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 0})
	round := fb.NewBlock()
	fb.Jmp(round)
	fb.StartBlock(round)
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 1})
	fb.Syscall(isa.SysLoadModule)
	fb.Block()
	fb.Call(pluginFn)
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 1})
	fb.Syscall(isa.SysUnloadModule)
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 2, Rs1: 2, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 2, Imm: 12})
	fb.Jcc(isa.CondLT, round)
	fb.Block()
	fb.Halt()

	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// modSpy records where in its blocks a guest reported unloads.
type modSpy struct {
	dbt.Guest
	atZero, midBlock int
}

func (s *modSpy) Fill(b *dbt.StepBlock, max int) error {
	err := s.Guest.Fill(b, max)
	for _, m := range b.Mods {
		if len(m.Unloaded) == 0 {
			continue
		}
		if m.At == 0 {
			s.atZero++
		} else {
			s.midBlock++
		}
	}
	return err
}

// TestBlockSizeInvarianceVM: an interpreted guest that maps and unmaps a
// module produces the same log bytes, RunStats and lifetimes whatever the
// block capacity, with unloads both at the head of a block and inside one,
// and whether Run executes to the end or stops at budgets that are not
// multiples of the capacity.
func TestBlockSizeInvarianceVM(t *testing.T) {
	img := buildPluginChurn(t)
	spies := map[int]*modSpy{}
	newGuest := func(n int) func() dbt.Guest {
		return func() dbt.Guest {
			s := &modSpy{Guest: dbt.VMGuest{M: vm.New(img)}}
			spies[n] = s
			return s
		}
	}
	want := runCapped(t, img, blockCaps[0], newGuest(0))
	if want.stats.UnmappedTraces == 0 || want.stats.TracesCreated == 0 {
		t.Fatalf("program exercises no unmapped traces: %+v", want.stats)
	}
	for _, n := range blockCaps[1:] {
		sameOutcome(t, "unbounded", runCapped(t, img, n, newGuest(n)), want)
		if n == 7 && (spies[n].atZero == 0 || spies[n].midBlock == 0) {
			t.Errorf("capacity 7: %d unloads at index 0, %d mid-block; want both", spies[n].atZero, spies[n].midBlock)
		}
	}
	total := want.stats.Blocks
	bounded := runCapped(t, img, blockCaps[0], newGuest(0), total/2+3)
	if bounded.stats.Blocks != total/2+3 {
		t.Fatalf("bounded run executed %d blocks, want %d", bounded.stats.Blocks, total/2+3)
	}
	for _, n := range blockCaps {
		sameOutcome(t, "bounded", runCapped(t, img, n, newGuest(n), total/2+3), bounded)
		// Stopping at two budgets and resuming to the end matches one
		// unbounded Run: the guest never executes ahead of the budget.
		sameOutcome(t, "resumed", runCapped(t, img, n, newGuest(n), total/3+1, total/2+3, 0), want)
	}
}

// TestBlockSizeInvarianceDriver: a multi-threaded workload driver, whose
// steps come in runs cut by thread slices, phase changes and unloads, gives
// the same log bytes and RunStats at every block capacity, bounded or not.
func TestBlockSizeInvarianceDriver(t *testing.T) {
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	p = p.Scaled(1.0 / 32)
	p.Threads = 3
	p.UnloadProb = 1
	bench, err := workload.Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	newGuest := func() dbt.Guest { return bench.NewDriver() }
	want := runCapped(t, bench.Image, blockCaps[0], newGuest)
	if want.stats.UnmappedTraces == 0 {
		t.Fatalf("driver run unmapped no traces: %+v", want.stats)
	}
	budget := want.stats.Blocks/3 + 5
	bounded := runCapped(t, bench.Image, blockCaps[0], newGuest, budget)
	for _, n := range blockCaps[1:] {
		sameOutcome(t, "unbounded", runCapped(t, bench.Image, n, newGuest), want)
		sameOutcome(t, "bounded", runCapped(t, bench.Image, n, newGuest, budget), bounded)
	}
}

// TestBlockSizeInvarianceRoundRobin: the round-robin schedule fills exactly
// each turn's quantum, so per-process logs and stats — shared-tier
// adoptions included — do not depend on the block capacity.
func TestBlockSizeInvarianceRoundRobin(t *testing.T) {
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	bench, err := workload.Synthesize(p.Scaled(1.0 / 32))
	if err != nil {
		t.Fatal(err)
	}
	// A cache small enough that traces churn through the private tiers
	// into the shared one, where later processes adopt them.
	const procs, capacity = 3, 8 << 10
	run := func(n int, maxPerProc uint64) []outcome {
		sp := core.NewSharedPersistent(1<<20, nil, nil)
		sys := dbt.NewSystem(sp)
		guests := make([]dbt.Guest, procs)
		bufs := make([]*bytes.Buffer, procs)
		ws := make([]*tracelog.Writer, procs)
		for i := range guests {
			spec, err := core.ParseTierSpec("45-10-45@1", capacity)
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := core.NewGraphShared(spec, sp, i, nil)
			if err != nil {
				t.Fatal(err)
			}
			bufs[i] = new(bytes.Buffer)
			if ws[i], err = tracelog.NewWriter(bufs[i], tracelog.Header{Benchmark: "rr", Procs: procs}); err != nil {
				t.Fatal(err)
			}
			e, err := sys.NewProcess(i, bench.Image, dbt.Config{Manager: mgr, Log: ws[i]})
			if err != nil {
				t.Fatal(err)
			}
			dbt.SetBlockSteps(e, n)
			guests[i] = bench.NewDriverProc(i)
		}
		if err := sys.RunRoundRobin(guests, 64, bench.TotalBudget()/6, maxPerProc); err != nil {
			t.Fatal(err)
		}
		out := make([]outcome, procs)
		for i, pr := range sys.Procs() {
			if err := ws[i].Flush(); err != nil {
				t.Fatal(err)
			}
			out[i] = outcome{log: bufs[i].Bytes(), stats: pr.Stats()}
		}
		return out
	}
	for _, max := range []uint64{0, 20_001} {
		want := run(blockCaps[0], max)
		var adopted uint64
		for _, o := range want {
			adopted += o.stats.SharedAdopted
		}
		if max == 0 && adopted == 0 {
			t.Fatal("round-robin run adopted no shared traces")
		}
		for _, n := range blockCaps[1:] {
			for i, o := range run(n, max) {
				sameOutcome(t, "round robin", o, want[i])
			}
		}
	}
}

// scriptGuest fills a fixed step sequence, then finishes. Its steps run
// plugin's loop block at times 10, 20, ...; the step at unloadAt also
// unloads the plugin.
type scriptGuest struct {
	img      *program.Image
	addr     uint64
	steps    int
	unloadAt int
	plugin   program.ModuleID
	next     int
}

func (g *scriptGuest) Image() *program.Image { return g.img }

func (g *scriptGuest) Fill(b *dbt.StepBlock, max int) error {
	b.Reset()
	for b.N < min(max, b.Cap()) {
		if g.next == g.steps {
			b.Done = true
			return nil
		}
		if g.next == g.unloadAt {
			b.Mods = append(b.Mods, dbt.ModChange{At: b.N, Unloaded: []program.ModuleID{g.plugin}})
		}
		b.Addr[b.N], b.Time[b.N], b.Thread[b.N] = g.addr, uint64(10*(g.next+1)), 0
		b.N++
		g.next++
	}
	return nil
}

// TestStepTimeRules pins the guest contract's two time rules: an unload is
// logged at the time of the step that carries it, and the end of the run at
// the last executed step's time.
func TestStepTimeRules(t *testing.T) {
	img := buildPluginChurn(t)
	plugin := img.Modules[1]
	loop := plugin.Functions[0].Blocks[1]
	for _, n := range blockCaps {
		var buf bytes.Buffer
		w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "rules"})
		if err != nil {
			t.Fatal(err)
		}
		e, err := dbt.New(img, dbt.Config{Manager: core.NewUnified(1<<20, nil, nil), HotThreshold: 2, Log: w})
		if err != nil {
			t.Fatal(err)
		}
		dbt.SetBlockSteps(e, n)
		g := &scriptGuest{img: img, addr: loop.Addr, steps: 12, unloadAt: 8, plugin: plugin.ID}
		if err := e.Run(g, 0); err != nil {
			t.Fatal(err)
		}
		_, events, err := tracelog.ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var unmaps int
		for _, ev := range events {
			switch ev.Kind {
			case tracelog.KindUnmap:
				unmaps++
				if ev.Time != 90 {
					t.Errorf("capacity %d: unmap logged at %d, want 90 (step 8's time)", n, ev.Time)
				}
			case tracelog.KindEnd:
				if ev.Time != 120 {
					t.Errorf("capacity %d: end logged at %d, want 120 (the last step's time)", n, ev.Time)
				}
			}
		}
		if unmaps != 1 {
			t.Errorf("capacity %d: %d unmap events, want 1", n, unmaps)
		}
	}
}
