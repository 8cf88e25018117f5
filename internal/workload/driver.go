package workload

import (
	"math"
	"math/rand"

	"repro/internal/dbt"
	"repro/internal/program"
)

// Driver replays a Bench's execution plan as a stream of guest steps. It
// implements dbt.Guest: the engine under test observes exactly the block
// stream, module churn, and virtual timing the plan dictates.
//
// Within each phase the driver repeatedly visits functions: core functions
// with probability HotAccessFrac, otherwise a phase-local function whose
// activity window covers the current phase progress. A visit walks the
// function's loops with per-visit iteration counts jittered around each
// loop's mean. When a phase's step budget is exhausted, its module may be
// unmapped and the next phase begins.
type Driver struct {
	b *Bench
	r *rand.Rand

	phase        int
	stepsInPhase uint64

	// One walk per guest thread; walks[curThread] is being served. With a
	// single thread the driver behaves exactly as a sequential walk.
	walks     []walk
	curThread int
	sliceLeft int

	// Warmup state: application startup touches every core function
	// warmupVisits times before phase 0 begins.
	warming   bool
	warmFn    int
	warmRound int

	pendingUnload []program.ModuleID
	pendingLoad   []program.ModuleID
	done          bool

	// Virtual clock: dur is the declared duration; after s steps, clock and
	// clockRem are the quotient and remainder of s*dur/totalBudget. Each
	// step adds clockStep and clockStepRem, dur/totalBudget and its
	// remainder.
	dur                     uint64
	clock, clockRem         uint64
	clockStep, clockStepRem uint64
}

// walk is one guest thread's current visit expansion.
type walk struct {
	seq []uint64
	idx int
}

// NewDriver returns a fresh, deterministic driver for the bench. It is
// NewDriverProc(0): the historical single-process stream, bit for bit.
func (b *Bench) NewDriver() *Driver {
	return b.NewDriverProc(0)
}

// NewDriverProc returns a deterministic driver for front-end process proc of
// a multi-process system. Every process executes the same image — the same
// modules, core set, and phase structure, as N instances of one application
// would — but with process-specific random jitter, so visit orders and
// iteration counts diverge while the hot core functions (and therefore the
// persistent trace population) overlap. Process 0's stream is identical to
// NewDriver's.
func (b *Bench) NewDriverProc(proc int) *Driver {
	n := b.Profile.Threads
	if n < 1 {
		n = 1
	}
	d := &Driver{b: b, r: b.rng(1 + int64(proc)*15485863), warming: len(b.core) > 0, walks: make([]walk, n)}
	d.dur = b.Profile.DurationMicros()
	if b.totalBudget != 0 {
		d.clockStep, d.clockStepRem = d.dur/b.totalBudget, d.dur%b.totalBudget
	}
	if len(b.phaseModule) > 0 {
		d.pendingLoad = []program.ModuleID{b.phaseModule[0]}
	}
	return d
}

// Image implements dbt.Guest.
func (d *Driver) Image() *program.Image { return d.b.Image }

// tick counts one step and returns its virtual time: steps*dur/totalBudget
// capped at dur, the plan's step count mapped onto the benchmark's declared
// duration. The quotient and remainder carry from step to step, so the time
// is exact without a divide per step.
func (d *Driver) tick() uint64 {
	if d.b.totalBudget == 0 {
		return 0
	}
	d.clock += d.clockStep
	d.clockRem += d.clockStepRem
	if d.clockRem >= d.b.totalBudget {
		d.clockRem -= d.b.totalBudget
		d.clock++
	}
	return min(d.clock, d.dur)
}

// Fill implements dbt.Guest. It hands out each walk in runs: every step of
// a run comes from the same walk on the same thread, so the run's block
// addresses are one copy and only the clock advances per step.
func (d *Driver) Fill(b *dbt.StepBlock, max int) error {
	b.Reset()
	max = min(max, b.Cap())
	for b.N < max {
		if d.done {
			b.Done = true
			return nil
		}
		// Warmup (application startup) runs on thread 0 only; afterwards the
		// driver time-slices the guest threads.
		slicing := !d.warming && len(d.walks) > 1
		if slicing {
			if d.sliceLeft <= 0 {
				d.curThread = (d.curThread + 1) % len(d.walks)
				d.sliceLeft = 30 + d.r.Intn(90)
			}
		} else {
			d.curThread = 0
		}
		w := &d.walks[d.curThread]
		if w.idx >= len(w.seq) && !d.nextVisit(w) {
			b.Done = true
			return nil
		}

		// The run ends with the walk, the block or the thread's slice. If
		// this visit ended warmup in a multi-threaded guest, the run is one
		// step: slicing starts with the step after it.
		k := min(len(w.seq)-w.idx, max-b.N)
		switch {
		case slicing:
			k = min(k, d.sliceLeft)
			d.sliceLeft -= k
		case !d.warming && len(d.walks) > 1:
			k = 1
		}
		if d.pendingUnload != nil || d.pendingLoad != nil {
			b.Mods = append(b.Mods, dbt.ModChange{At: b.N, Loaded: d.pendingLoad, Unloaded: d.pendingUnload})
			d.pendingUnload, d.pendingLoad = nil, nil
		}
		n := b.N
		copy(b.Addr[n:n+k], w.seq[w.idx:w.idx+k])
		w.idx += k
		if !d.warming {
			d.stepsInPhase += uint64(k)
		}
		thread := int32(d.curThread)
		for i := n; i < n+k; i++ {
			b.Time[i] = d.tick()
			b.Thread[i] = thread
		}
		b.N = n + k
	}
	return nil
}

// nextVisit expands the next visit into the exhausted walk w: the next
// warmup visit of a core function, or a visit picked from the current
// phase, after advancing past a spent phase. It reports false, expanding
// nothing, when the last phase is spent.
func (d *Driver) nextVisit(w *walk) bool {
	if d.warming {
		d.expandVisit(w, d.b.core[d.warmFn])
		d.warmFn++
		if d.warmFn >= len(d.b.core) {
			d.warmFn = 0
			d.warmRound++
			if d.warmRound >= warmupVisits {
				d.warming = false
			}
		}
		return true
	}
	if d.stepsInPhase >= d.b.phaseBudget[d.phase] {
		d.advancePhase()
		if d.done {
			return false
		}
	}
	d.expandVisit(w, d.pickFunction())
	return true
}

func (d *Driver) advancePhase() {
	if d.b.unloadAtEnd[d.phase] {
		d.pendingUnload = append(d.pendingUnload, d.b.phaseModule[d.phase])
		// Threads mid-visit in the dying phase finish instantly: their
		// remaining walks are dropped so no unloaded code executes.
		for i := range d.walks {
			d.walks[i] = walk{}
		}
	}
	d.phase++
	d.stepsInPhase = 0
	if d.phase >= len(d.b.phases) {
		d.done = true
		return
	}
	d.pendingLoad = append(d.pendingLoad, d.b.phaseModule[d.phase])
}

// expandVisit expands one visit of fn into the walk.
func (d *Driver) expandVisit(w *walk, fn *fnSpec) {
	w.seq = w.seq[:0]
	w.idx = 0

	w.seq = append(w.seq, fn.entry)
	for _, l := range fn.loops {
		iters := l.meanIters + d.r.Intn(9) - 4
		if iters < 1 {
			iters = 1
		}
		for it := 0; it < iters; it++ {
			if l.side != 0 && d.r.Float64() < sideProb {
				w.seq = append(w.seq, l.blocks[:l.sideIdx+1]...)
				w.seq = append(w.seq, l.side)
				w.seq = append(w.seq, l.blocks[l.sideIdx+1:]...)
				continue
			}
			w.seq = append(w.seq, l.blocks...)
		}
		// Final guard evaluation: the head executes once more and exits.
		w.seq = append(w.seq, l.blocks[0])
	}
	w.seq = append(w.seq, fn.ret)
}

// pickFunction chooses a core function (skewed toward the hottest few) or
// an active phase-local function.
func (d *Driver) pickFunction() *fnSpec {
	if d.r.Float64() < d.b.Profile.HotAccessFrac {
		return d.pickCore()
	}
	progress := float64(d.stepsInPhase) / float64(d.b.phaseBudget[d.phase])

	// Early in a phase, recurring functions from the previous phase are
	// still in their second activity window.
	if progress < windowFrac && d.phase > 0 && d.r.Float64() < 0.3 {
		if fn := d.pickRecurring(d.phase - 1); fn != nil {
			return fn
		}
	}

	fns := d.b.phases[d.phase]
	n := len(fns)
	for attempt := 0; attempt < 12; attempt++ {
		j := d.r.Intn(n)
		start, end := fnWindow(j, n)
		if progress >= start && progress < end {
			return fns[j]
		}
		// Recurring functions also answer during their overflow window
		// past the end of the phase.
		if fns[j].recurs && progress >= start {
			return fns[j]
		}
	}
	return d.pickCore()
}

// pickCore selects a core function with a mild skew toward index 0, giving
// the core set a hot/warm gradient while still revisiting the tail often
// enough that every core trace stays live to near the end of the run.
func (d *Driver) pickCore() *fnSpec {
	u := d.r.Float64()
	idx := int(u * math.Sqrt(u) * float64(len(d.b.core)))
	if idx >= len(d.b.core) {
		idx = len(d.b.core) - 1
	}
	return d.b.core[idx]
}

// pickRecurring finds a recurring function from the given phase.
func (d *Driver) pickRecurring(ph int) *fnSpec {
	fns := d.b.phases[ph]
	for attempt := 0; attempt < 8; attempt++ {
		fn := fns[d.r.Intn(len(fns))]
		if fn.recurs {
			return fn
		}
	}
	return nil
}

var _ dbt.Guest = (*Driver)(nil)
