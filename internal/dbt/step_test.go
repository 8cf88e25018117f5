package dbt

import "repro/internal/program"

// step is one guest step, for tests that drive the engine by hand.
type step struct {
	Block    uint64
	Thread   int
	Unloaded []program.ModuleID
}

// observe executes one step through a one-step block, at time 0.
func (e *Process) observe(s step) error {
	b := NewStepBlock(1)
	b.N = 1
	b.Addr[0], b.Thread[0] = s.Block, int32(s.Thread)
	if len(s.Unloaded) > 0 {
		b.Mods = append(b.Mods, ModChange{At: 0, Unloaded: s.Unloaded})
	}
	return e.execute(b)
}
