package dbt

import (
	"repro/internal/program"
	"repro/internal/vm"
)

// VMGuest adapts the reference interpreter to the Guest interface, letting
// the engine dynamically optimize a real interpreted program. Virtual time
// is the machine's retired-instruction count (one instruction = one
// microsecond of virtual time).
type VMGuest struct {
	M *vm.Machine
}

// Image implements Guest.
func (g VMGuest) Image() *program.Image { return g.M.Image() }

// Fill implements Guest by stepping the machine one basic block per step.
func (g VMGuest) Fill(b *StepBlock, max int) error {
	b.Reset()
	if max > b.Cap() {
		max = b.Cap()
	}
	for b.N < max {
		if g.M.Halted() {
			b.Done = true
			return nil
		}
		info, err := g.M.Step()
		if err != nil {
			return err
		}
		i := b.N
		if len(info.Loaded) > 0 || len(info.Unloaded) > 0 {
			b.Mods = append(b.Mods, ModChange{At: i, Loaded: info.Loaded, Unloaded: info.Unloaded})
		}
		b.Addr[i], b.Time[i], b.Thread[i] = info.Block, g.M.InstCount, 0
		b.N++
	}
	return nil
}
