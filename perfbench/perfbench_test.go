package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/server/api"
)

// Short parameter sets: every workload's full code path, on small logs, so
// the suite runs each workload under -race in well under a minute.
func shortOffline() offlineParams {
	return offlineParams{Scale: 1.0 / 32, Parallel: 2, Benchmarks: []string{"gzip", "mcf", "bzip2"}, Warmup: []string{"gzip"}, SetupReps: 1, LayerReps: 1}
}

func shortServe() serveParams {
	p := defaultServeParams()
	p.Scale = 1.0 / 32
	p.Mix = []mixEntry{{"gzip", 2, 1, 1}, {"solitaire", 1, 1, 1}, {"mcf", 1, 0, 0}}
	p.Rate = 8
	p.SetupReps = 1
	return p
}

func shortCluster() clusterParams {
	p := defaultClusterParams()
	p.Scale = 1.0 / 32
	p.Benches = []string{"gzip", "mcf", "bzip2", "swim", "solitaire", "eon"}
	p.SetupReps = 1
	return p
}

func runShort(t *testing.T, name string, traced bool, serve serveParams, clu clusterParams) *outcome {
	t.Helper()
	opts := runOpts{seed: 3, seconds: 1, traced: traced, out: t.TempDir()}
	var (
		o   *outcome
		err error
	)
	ctx := context.Background()
	switch name {
	case "offline-figures":
		o, err = runOffline(ctx, shortOffline(), opts)
	case "serve-warm":
		o, err = runServe(ctx, serve, opts)
	case "cluster-cold":
		o, err = runCluster(ctx, clu, opts)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return o
}

// TestWorkloadsShort runs every workload untraced and traced: no operation
// may fail, and each result must carry exactly its declared metric set.
func TestWorkloadsShort(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := runShort(t, name, traced, shortServe(), shortCluster())
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, o.failed, o.attempted)
			}
			m := o.e2e
			if traced {
				m = o.layer
			}
			if err := checkMetricSet(m, traced); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			if !traced {
				for _, d := range endToEnd {
					if m[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m[d.name].Value)
					}
				}
			}
		}
	}
}

// TestTamperedResultCounted corrupts one served result per workload; the
// check must count exactly that session as failed.
func TestTamperedResultCounted(t *testing.T) {
	tamper := func(i int, r *api.SessionResult) {
		if i == 1 {
			r.Hits++
		}
	}
	sp := shortServe()
	sp.tamper = tamper
	cp := shortCluster()
	cp.tamper = tamper
	for _, name := range []string{"serve-warm", "cluster-cold"} {
		o := runShort(t, name, false, sp, cp)
		if o.failed != 1 {
			t.Errorf("%s: %d failed operations with one tampered result, want 1", name, o.failed)
		}
	}
}

// TestSameSeedSameInputs: a seed fixes the serve-warm schedule and the
// logs; another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	p := defaultServeParams()
	a, b := serveSchedule(p, 7, 20), serveSchedule(p, 7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serve-warm schedules")
	}
	if reflect.DeepEqual(a, serveSchedule(p, 8, 20)) {
		t.Fatal("different seeds gave the same serve-warm schedule")
	}
	block := 0
	for _, m := range p.Mix {
		block += m.PerBlock
	}
	if len(a)%block != 0 {
		t.Fatalf("schedule of %d sessions is not whole blocks of %d", len(a), block)
	}
	for start := 0; start < len(a); start += block {
		counts, attrib := map[int]int{}, map[int]int{}
		for _, s := range a[start : start+block] {
			counts[s.Log]++
			if s.Attrib {
				attrib[s.Log]++
			}
		}
		for i, m := range p.Mix {
			if counts[i] != m.PerBlock || attrib[i] != m.Attrib {
				t.Errorf("block at %d: %d %s sessions, %d with attrib; want %d, %d",
					start, counts[i], m.Bench, attrib[i], m.PerBlock, m.Attrib)
			}
		}
	}

	cp := shortCluster()
	digest := func(seed int64) string {
		logs, err := synthLogs(context.Background(), nil, 0, clusterSpecs(cp, seed), 2)
		if err != nil {
			t.Fatal(err)
		}
		return logsDigest(logs)
	}
	if d1, d2 := digest(5), digest(5); d1 != d2 {
		t.Fatalf("same seed gave different log digests %s and %s", d1, d2)
	}
	if digest(5) == digest(6) {
		t.Fatal("different seeds gave the same logs")
	}
}

// TestSelfSeconds: a span's self time excludes the union of its children,
// even where the children overlap.
func TestSelfSeconds(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "bench.root", StartNs: 0, EndNs: 10e9},
		{ID: 2, Parent: 1, Name: "server.a", StartNs: 1e9, EndNs: 4e9},
		{ID: 3, Parent: 1, Name: "server.b", StartNs: 3e9, EndNs: 6e9},
		{ID: 4, Parent: 2, Name: "sim.c", StartNs: 2e9, EndNs: 3e9},
	}}
	got := tr.selfSeconds()
	want := map[string]float64{"bench": 5, "server": 2 + 3, "sim": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self seconds %v, want %v", got, want)
	}
}

// TestProfileShares decodes a real CPU profile of this process.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	counts, total, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("profile of a busy loop has no samples")
	}
	for stem, n := range counts {
		if n > total {
			t.Errorf("%s: %d samples of %d", stem, n, total)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric sets and workloads
// the program declares.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		decl []metricDecl
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []metricDecl
		for _, m := range c.json {
			got = append(got, metricDecl{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.decl) {
			t.Errorf("BENCHMARK.json metrics %v, program declares %v", got, c.decl)
		}
	}
}
