// Policy comparison: local and global cache-management schemes head to head.
//
// One benchmark is run once under an unbounded cache to capture its event
// log (the paper's methodology); the log then replays through five
// managers of identical capacity:
//
//   - unified + pseudo-circular (the paper's baseline, §4.3)
//
//   - unified + LRU
//
//   - unified + flush-when-full
//
//   - unified + preemptive flushing (Dynamo's scheme)
//
//   - generational 45-10-45 @1 (the paper's proposal, §5), built as a
//     three-tier graph
//
//   - a four-generation graph 30-10-20-40 @1,2 — the tier-graph API is not
//     limited to the paper's three levels
//
//   - the same three-tier graph with the adaptive split controller attached
//
//     go run ./examples/policycompare [benchmark]
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	name := "gcc"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	profile, ok := repro.BenchmarkByName(name)
	if !ok {
		log.Fatalf("unknown benchmark %q", name)
	}
	profile = profile.Scaled(0.125)

	bench, err := repro.Synthesize(profile)
	if err != nil {
		log.Fatal(err)
	}

	// Unbounded run -> event log.
	var buf bytes.Buffer
	w, err := repro.NewLogWriter(&buf, profile.Name, profile.DurationMicros())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{
		Manager: repro.NewUnified(1<<40, nil),
		Log:     w,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(bench.NewDriver(), 0); err != nil {
		log.Fatal(err)
	}
	_, events, err := repro.ReadLog(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Capacity: half the unbounded peak, as in §6.
	peak := repro.UnboundedPeak(events)
	capacity := peak / 2
	fmt.Printf("%s: %d events, unbounded peak %.1f KB, simulated capacity %.1f KB\n\n",
		profile.Name, len(events), float64(peak)/1024, float64(capacity)/1024)

	type entry struct {
		name string
		mgr  func(repro.Observer) repro.Manager
	}
	mk := func(p func() repro.LocalPolicy) func(repro.Observer) repro.Manager {
		return func(h repro.Observer) repro.Manager {
			return repro.NewUnifiedWithPolicy(capacity, p(), h)
		}
	}
	// The non-unified entries are all tier graphs: the paper's generational
	// chain is just the stock three-tier shape, a four-generation chain
	// needs nothing but a longer spec string, and the adaptive entry
	// attaches the online split controller to the stock shape.
	graph := func(tiers string, adaptive bool) func(repro.Observer) repro.Manager {
		return func(h repro.Observer) repro.Manager {
			spec, err := repro.ParseTierSpec(tiers, capacity)
			if err != nil {
				log.Fatal(err)
			}
			if adaptive {
				spec.Adaptive = &repro.AdaptiveConfig{Epoch: 512}
			}
			g, err := repro.NewTierGraph(spec, h)
			if err != nil {
				log.Fatal(err)
			}
			return g
		}
	}
	entries := []entry{
		{"unified pseudo-circular", mk(repro.PseudoCircularPolicy)},
		{"unified LRU", mk(repro.LRUPolicy)},
		{"unified flush-when-full", mk(repro.FlushWhenFullPolicy)},
		{"unified preemptive-flush", mk(repro.PreemptiveFlushPolicy)},
		{"generational 45-10-45@1", graph("45-10-45@1", false)},
		{"4-gen 30-10-20-40@1,2", graph("30-10-20-40@1,2", false)},
		{"adaptive 45-10-45@1", graph("45-10-45@1", true)},
	}

	fmt.Printf("%-26s %10s %10s %10s %12s\n", "manager", "accesses", "misses", "miss rate", "overhead")
	var baseline float64
	for i, e := range entries {
		res := replay(e.mgr, events, profile.Name)
		total := res.Overhead.Total()
		if i == 0 {
			baseline = total
		}
		fmt.Printf("%-26s %10d %10d %9.3f%% %11.1f%%\n",
			e.name, res.Accesses, res.Misses, 100*res.MissRate(), 100*total/baseline)
	}
	fmt.Println("\noverhead is relative to the pseudo-circular baseline (lower is better).")
	fmt.Println("note: LRU's miss rate is strong but the Table 2 model does not charge its")
	fmt.Println("per-access bookkeeping or fragmentation walks — the very costs that made")
	fmt.Println("the paper's prior work reject LRU for real code caches (§4.2).")
}

func replay(mk func(repro.Observer) repro.Manager, events []repro.Event, name string) repro.ReplayResult {
	// Each replay needs a fresh manager wired to a fresh cost accumulator;
	// the facade's Replay helpers handle the pairing for the two standard
	// shapes, and ReplayWith does it for any manager.
	res, err := repro.ReplayWith(name, events, mk)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
