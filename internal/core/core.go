// Package core implements the paper's central contribution: global code
// cache management. A manager owns one or more code caches and decides where
// traces live, when they move, and when they die.
//
// The one manager type is the tier graph (*Graph, see graph.go): a chain of
// caches connected by eviction edges with hit-threshold promotion gates. Two
// stock shapes reproduce the paper. The unified baseline (NewUnified) is a
// single trace cache driven by a local replacement policy (the paper's
// baseline is a single pseudo-circular cache sized at half the workload's
// unbounded footprint). The generational design of §5 (NewGenerational) has
// a nursery cache that receives all new traces; traces evicted from the
// nursery move to a probation cache; traces that prove themselves in
// probation are promoted to a persistent cache, while the rest die (Figure
// 8). The probation cache plays the role of a victim cache whose hits
// identify long-lived traces (§5.3).
//
// Every manager publishes its trace lifecycle — insertions, capacity
// evictions, promotions, and program-forced deletions — to the obs.Observer
// it was constructed with; the simulator's cost accounting and the
// experiment metrics both subscribe to that bus.
package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/policy"
)

// Level identifies one cache within a manager. It is an alias for obs.Level
// so manager events and the observer bus share one vocabulary.
type Level = obs.Level

// Cache levels. Unified managers use LevelUnified only; generational
// managers use the other three (N-generation graphs label extra middle
// generations with levels past the named ones).
const (
	LevelUnified    = obs.LevelUnified
	LevelNursery    = obs.LevelNursery
	LevelProbation  = obs.LevelProbation
	LevelPersistent = obs.LevelPersistent
)

// Stats aggregates manager activity.
type Stats struct {
	Inserts             uint64 // new traces accepted
	Accesses            uint64 // Access calls
	Hits                uint64 // Access calls that found the trace resident
	Evicted             uint64 // traces that left the system from capacity pressure
	EvictedBytes        uint64
	PromotedToProbation uint64
	PromotedToPersist   uint64
	ProbationDeaths     uint64 // probation victims that failed the threshold
	ForcedDeletes       uint64 // program-forced (module unmap) deletions
	ForcedDeleteBytes   uint64
	DropTooBig          uint64 // traces that could not fit anywhere
}

// NewUnified creates a unified cache of the given capacity with the given
// local policy (nil defaults to pseudo-circular). Lifecycle events are
// published to o (nil for none).
func NewUnified(capacity uint64, local policy.Local, o obs.Observer) *Graph {
	g, err := NewGraph(UnifiedSpec(capacity, local), o)
	if err != nil {
		// A one-tier spec can only fail on zero capacity, which the arena
		// layer has always treated as a programming error.
		panic(err)
	}
	return g
}

// ---------------------------------------------------------------------------
// Legacy three-tier configuration

// Config describes a generational layout. Fractions are of TotalCapacity
// and should sum to 1; Validate checks this. It is the fixed three-tier
// ancestor of GraphSpec, kept as the vocabulary of the paper's experiments;
// GraphSpec generalizes it.
type Config struct {
	TotalCapacity  uint64
	NurseryFrac    float64
	ProbationFrac  float64
	PersistentFrac float64

	// PromoteThreshold is the number of probation-cache accesses a trace
	// needs to earn promotion to the persistent cache. Figure 9's "@1" and
	// "@10" labels are this knob.
	PromoteThreshold uint64

	// PromoteOnAccess promotes a probation trace the moment it reaches the
	// threshold rather than waiting for its eviction (§5.3's "each hit in
	// the probation cache triggers an upgrade" when the threshold is 1).
	PromoteOnAccess bool

	// Local constructs the local policy for each cache; nil defaults to
	// pseudo-circular for all three, which is the paper's design.
	Local func(Level) policy.Local
}

// Layout433Threshold10 is Figure 9's 33%-33%-33% layout with threshold 10.
func Layout433Threshold10(total uint64) Config {
	return Config{TotalCapacity: total, NurseryFrac: 1.0 / 3, ProbationFrac: 1.0 / 3, PersistentFrac: 1.0 / 3, PromoteThreshold: 10, PromoteOnAccess: false}
}

// Layout451045Threshold1 is Figure 9's best-overall 45%-10%-45% layout with
// single-hit promotion.
func Layout451045Threshold1(total uint64) Config {
	return Config{TotalCapacity: total, NurseryFrac: 0.45, ProbationFrac: 0.10, PersistentFrac: 0.45, PromoteThreshold: 1, PromoteOnAccess: true}
}

// Layout104545Threshold10 is Figure 9's 10%-45%-45% layout with threshold 10.
func Layout104545Threshold10(total uint64) Config {
	return Config{TotalCapacity: total, NurseryFrac: 0.10, ProbationFrac: 0.45, PersistentFrac: 0.45, PromoteThreshold: 10, PromoteOnAccess: false}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TotalCapacity == 0 {
		return fmt.Errorf("core: zero total capacity")
	}
	sum := c.NurseryFrac + c.ProbationFrac + c.PersistentFrac
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("core: cache fractions sum to %.3f, want 1", sum)
	}
	if c.NurseryFrac <= 0 || c.ProbationFrac <= 0 || c.PersistentFrac <= 0 {
		return fmt.Errorf("core: every cache fraction must be positive")
	}
	return nil
}

// NewGenerational creates a generational manager from the configuration.
// Lifecycle events are published to o (nil for none).
func NewGenerational(cfg Config, o obs.Observer) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewGraph(cfg.GraphSpec(), o)
}
