package dbt

import "repro/internal/program"

// BlockSteps is the capacity of the step block Run fills per guest call.
// 1024 steps keep the block's columns (~20 KiB) cache-resident while
// amortizing the guest call and the block bookkeeping to nothing.
const BlockSteps = 1024

// Guest is a program under the engine's control. Implementations include
// the reference interpreter (VMGuest) and the synthetic workload driver
// (workload).
type Guest interface {
	// Image returns the guest's program image.
	Image() *program.Image
	// Fill resets b and executes up to max basic blocks (never more than
	// b.Cap()) into it. It returns fewer only when execution finishes,
	// which it reports by setting b.Done, or on error, in which case the
	// first b.N steps are still valid: they executed before the failure.
	Fill(b *StepBlock, max int) error
}

// StepBlock is a caller-owned batch of guest steps in struct-of-arrays
// layout, the engine-side counterpart of tracelog.EventBlock. Step i is the
// basic block at Addr[i], executed by guest thread Thread[i] at virtual time
// Time[i] (microseconds since the start of the run); the first N entries of
// every column are valid. Module mapping changes are rare, so they ride in
// the Mods side list instead of on every step.
//
// Done reports that the guest finished after the N steps: no steps follow.
// It carries no time of its own — the run's end time is the last executed
// step's time.
type StepBlock struct {
	N      int
	Addr   []uint64
	Time   []uint64
	Thread []int32
	Mods   []ModChange
	Done   bool
}

// ModChange records the module mapping changes step At of a block caused.
// The engine applies the unloads before step At executes, at that step's
// time. Mods holds at most one record per step, in increasing At order.
// Loads need no engine action (code is rediscovered on execution); they are
// carried for guests' consumers.
type ModChange struct {
	At       int
	Loaded   []program.ModuleID
	Unloaded []program.ModuleID
}

// NewStepBlock allocates a block with the given capacity (BlockSteps when
// n <= 0).
func NewStepBlock(n int) *StepBlock {
	if n <= 0 {
		n = BlockSteps
	}
	return &StepBlock{
		Addr:   make([]uint64, n),
		Time:   make([]uint64, n),
		Thread: make([]int32, n),
	}
}

// Cap returns the block's step capacity.
func (b *StepBlock) Cap() int { return len(b.Addr) }

// Reset empties the block without releasing its arrays.
func (b *StepBlock) Reset() {
	b.N = 0
	b.Mods = b.Mods[:0]
	b.Done = false
}
