package dbt

// SetBlockSteps gives e a step block of capacity n, for tests showing that
// results do not depend on the block size.
func SetBlockSteps(e *Process, n int) { e.steps = NewStepBlock(n) }
