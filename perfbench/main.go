// Command perfbench is the repository's end-to-end benchmark. It drives the
// offline figure pipeline (experiments) and the gencached service (server,
// cluster, persist) through their public APIs, checks every output against
// an independent reference, and prints one JSON result line.
//
//	perfbench -workload <offline-figures|serve-warm|cluster-cold|all> \
//	          -seed <n> -seconds <s> -trace <0|1> [-out <dir>]
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, taken from spans the benchmark records
// around its own calls into each layer. README.md explains the workloads and
// which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"offline-figures", "serve-warm", "cluster-cold"}

// metricDecl declares one metric of the result and its unit.
type metricDecl struct{ name, unit string }

// endToEnd and perLayer are the metric sets a result carries with -trace 0
// and -trace 1. Every workload reports every name; README.md says which
// workload each metric is aimed at. The end-to-end costs are CPU time, not
// wall time: this benchmark shares its host, and a neighbour's load doubles
// wall time while it moves CPU time by a tenth. The wall-clock figures are
// per-layer metrics (wall.*), reported but unbounded.
var endToEnd = []metricDecl{
	{"setup_s", "s"}, {"events_per_cpu_s", "1/s"}, {"peak_rss_mb", "MB"}, {"fig11_gap_pp", "pp"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runOpts are the command-line settings shared by every workload.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
}

// setupReps is how often a run sets up: n times for the median setup_s,
// once in a traced run, which does not report it.
func (o runOpts) setupReps(n int) int {
	if o.traced {
		return 1
	}
	return n
}

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted, failed int
	e2e               metrics
	layer             metrics
	params            any
	digest            string
	samples           map[string]int // sample counts behind the timings
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
		seed         = flag.Int64("seed", 1, "workload seed")
		seconds      = flag.Float64("seconds", 25, "measurement time per run")
		trace        = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		out          = flag.String("out", ".bench_build/perfbench", "directory for spans and profiles")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive, got %v", *seconds)
	}
	opts := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	if *workloadName == "all" {
		if err := runAll(opts); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := runOne(context.Background(), *workloadName, opts)
	if err != nil {
		fatalf("%s: %v", *workloadName, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runOne runs one workload, prints its record line (host fingerprint, seed,
// parameters, output digest) and returns the contract result.
func runOne(ctx context.Context, name string, opts runOpts) (result, error) {
	var (
		o   *outcome
		err error
	)
	switch name {
	case "offline-figures":
		o, err = runOffline(ctx, defaultOfflineParams(), opts)
	case "serve-warm":
		o, err = runServe(ctx, defaultServeParams(), opts)
	case "cluster-cold":
		o, err = runCluster(ctx, defaultClusterParams(), opts)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: o.attempted, Failed: o.failed}
	res.Correct = o.attempted > 0 && o.failed == 0
	if opts.traced {
		res.Metrics = o.layer
	} else {
		res.Metrics = o.e2e
	}
	if err := checkMetricSet(res.Metrics, opts.traced); err != nil {
		return result{}, err
	}
	record := map[string]any{
		"workload": name,
		"seed":     opts.seed,
		"seconds":  opts.seconds,
		"trace":    opts.traced,
		"host":     hostFingerprint(),
		"params":   o.params,
		"digest":   o.digest,
		"samples":  o.samples,
	}
	line, err := json.Marshal(record)
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	return res, nil
}

// checkMetricSet fails a run whose result differs from the declared metric
// set, by name or unit, so a renamed metric cannot silently drop out of the
// comparison.
func checkMetricSet(m metrics, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, d := range want {
		got, ok := m[d.name]
		if !ok {
			return fmt.Errorf("result lacks metric %q", d.name)
		}
		if got.Unit != d.unit {
			return fmt.Errorf("metric %q has unit %q, declared %q", d.name, got.Unit, d.unit)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("result carries %d metrics, %d declared", len(m), len(want))
	}
	return nil
}

// runAll runs every workload, each in its own child process so one
// workload's memory never counts toward another's peak RSS, and prints a
// combined result whose metric names are prefixed with the workload.
func runAll(opts runOpts) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	total := result{Correct: true, Metrics: metrics{}}
	for _, name := range workloadNames {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(opts.seed),
			"-seconds", fmt.Sprint(opts.seconds), "-trace", boolDigit(opts.traced), "-out", opts.out)
		cmd.Stderr = os.Stderr
		start := time.Now()
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		os.Stdout.Write(stdout)
		var res result
		if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
			return fmt.Errorf("%s: reading result: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s done in %.1fs\n", name, time.Since(start).Seconds())
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !total.Correct {
		return errors.New("some workload failed its output checks")
	}
	return nil
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func lastLine(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == '\n' {
			return b[i+1:]
		}
	}
	return b
}
