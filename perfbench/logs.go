package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// logSpec names one input log: a benchmark profile, its seed offset and the
// synthesis scale.
type logSpec struct {
	Bench      string  `json:"bench"`
	SeedOffset int64   `json:"seed_offset"`
	Scale      float64 `json:"scale"`
}

// inputLog is a synthesized, encoded event log.
type inputLog struct {
	spec   logSpec
	data   []byte
	events uint64
}

// logsDigest identifies a workload's input logs: equal digests, equal
// bytes.
func logsDigest(logs []*inputLog) string {
	h := sha256.New()
	for _, l := range logs {
		h.Write(l.data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// synthLog synthesizes one benchmark and runs it under the engine with an
// unbounded cache, returning the encoded log: the tracegen path, with the
// profile's seed shifted by the spec's offset.
func synthLog(tr *tracer, parent int, session int64, spec logSpec) (*inputLog, error) {
	p, ok := workload.ByName(spec.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", spec.Bench)
	}
	p.Seed += spec.SeedOffset
	sp := tr.begin(parent, session, "workload.synthesize")
	b, err := workload.Synthesize(p.Scaled(spec.Scale))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: p.Name, DurationMicros: p.DurationMicros()})
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, session, "dbt.run")
	defer tr.end(sp)
	eng, err := dbt.New(b.Image, dbt.Config{Manager: core.NewUnified(1<<40, nil, nil), Log: w})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(b.NewDriver(), 0); err != nil {
		return nil, fmt.Errorf("running %s: %w", p.Name, err)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return &inputLog{spec: spec, data: buf.Bytes(), events: w.Events()}, nil
}

// synthLogs synthesizes every spec on the pipeline's worker pool at the
// given parallelism, in spec order.
func synthLogs(ctx context.Context, tr *tracer, parent int, specs []logSpec, parallel int) ([]*inputLog, error) {
	mp := tr.begin(parent, 0, "pipeline.map")
	defer tr.end(mp)
	jobs := make([]pipeline.Job[*inputLog], len(specs))
	for i, s := range specs {
		jobs[i] = pipeline.Job[*inputLog]{Name: s.Bench, Run: func(context.Context) (*inputLog, error) {
			sp := tr.begin(mp, int64(i), "pipeline.job")
			defer tr.end(sp)
			return synthLog(tr, sp, int64(i), s)
		}}
	}
	return pipeline.Map(ctx, pipeline.Options{Parallel: parallel}, jobs)
}

// expectation is the offline ground truth for one log: what a served
// session must reproduce, with the ledger off and on.
type expectation struct {
	plain, attrib api.SessionResult
}

func offlineExpectations(tr *tracer, parent int, logs []*inputLog) ([]expectation, error) {
	exp := make([]expectation, len(logs))
	for i, l := range logs {
		sp := tr.begin(parent, int64(i), "server.offline_replay")
		var err error
		exp[i].plain, err = server.OfflineReplay(server.SessionConfig{}, nil, l.data)
		if err == nil {
			exp[i].attrib, err = server.OfflineReplay(server.SessionConfig{Attrib: true}, nil, l.data)
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("offline replay of %s: %w", l.spec.Bench, err)
		}
	}
	return exp, nil
}

// checkSession reports why a served result is wrong, or "" when it matches
// the offline replay of the same log (and, for attrib sessions, conserves
// its causes to its regenerations).
func checkSession(res api.SessionResult, exp expectation, attrib bool) string {
	want := exp.plain
	if attrib {
		want = exp.attrib
	}
	if !server.ResultsEquivalent(res, want) {
		return "result differs from offline replay"
	}
	if attrib {
		c := res.Causes
		if c.Capacity+c.PrematureDemotion+c.NeverPromoted+c.UnmapForced+c.AdoptionMiss+c.RemoteAdoption != res.Regenerations {
			return "attribution causes do not sum to regenerations"
		}
	}
	return ""
}

// fig11Gap is |geomean Figure 11 overhead ratio - 80.7| in percentage
// points over the given logs, each compared as Figure 11 does: unified
// against 45-10-45@1 at half the log's unbounded peak.
func fig11Gap(logs []*inputLog) (float64, error) {
	var ratios []float64
	for _, l := range logs {
		h, events, err := tracelog.ReadAll(bytes.NewReader(l.data))
		if err != nil {
			return 0, err
		}
		capacity := tracelog.Summarize(h, events).MaxLiveBytes / 2
		if capacity == 0 {
			continue
		}
		cmp, err := sim.Compare(h.Benchmark, events, capacity, core.Layout451045Threshold1(capacity), costmodel.DefaultModel)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, cmp.OverheadRatio())
	}
	if len(ratios) == 0 {
		return 0, errors.New("no log has live trace bytes")
	}
	return math.Abs(stats.GeoMean(ratios)*100 - paperFig11GeoMean), nil
}

// paperFig11GeoMean is the paper's Figure 11 geomean overhead, in percent.
const paperFig11GeoMean = 80.7

// layerStats accumulates the per-log layer timings of layerPass.
type layerStats struct {
	events, bytes                        uint64
	decode, stepBlock, offline, attribOn time.Duration
	readAll, compare                     time.Duration
	offlineByLog, attribByLog            []time.Duration
	stepMismatch                         int
}

// layerPass times each layer's public entry point on every log, one call
// at a time: block decode, the batched replay kernel on a session's default
// manager, OfflineReplay with the ledger off and on, and ReadAll plus
// sim.Compare as Figure 11 calls it. Each call runs reps times and counts
// its median, so one collection cycle landing in a call does not set it.
func layerPass(tr *tracer, parent int, logs []*inputLog, reps int) (*layerStats, error) {
	ls := &layerStats{offlineByLog: make([]time.Duration, len(logs)), attribByLog: make([]time.Duration, len(logs))}
	root := tr.begin(parent, 0, "bench.layers")
	defer tr.end(root)
	for i, l := range logs {
		id := int64(i)
		ls.events += l.events
		ls.bytes += uint64(len(l.data))
		var dec, off, att, step, read, cmp []float64
		timed := func(into *[]float64, name string, fn func() error) error {
			t := time.Now()
			sp := tr.begin(root, id, name)
			err := fn()
			tr.end(sp)
			*into = append(*into, float64(time.Since(t)))
			return err
		}
		// An untimed replay first fills the block pool, as earlier sessions
		// have for a served one; otherwise the first timed call pays for it.
		if _, err := server.OfflineReplay(server.SessionConfig{}, nil, l.data); err != nil {
			return nil, err
		}
		for r := 0; r < reps; r++ {
			var n uint64
			err := timed(&dec, "tracelog.decode", func() (err error) {
				n, err = decodeAll(l.data)
				return err
			})
			if err == nil && n != l.events {
				err = fmt.Errorf("%s: decoded %d events, wrote %d", l.spec.Bench, n, l.events)
			}
			// The ledger-off and ledger-on replays swap order every rep, so
			// neither always runs in the other's wake.
			var plain api.SessionResult
			replayOff := func() error {
				return timed(&off, "server.offline_replay", func() (err error) {
					plain, err = server.OfflineReplay(server.SessionConfig{}, nil, l.data)
					return err
				})
			}
			replayOn := func() error {
				return timed(&att, "server.offline_replay_attrib", func() error {
					_, err := server.OfflineReplay(server.SessionConfig{Attrib: true}, nil, l.data)
					return err
				})
			}
			first, second := replayOff, replayOn
			if r%2 == 1 {
				first, second = replayOn, replayOff
			}
			if err == nil {
				err = first()
			}
			if err == nil {
				err = second()
			}
			if err == nil {
				var d time.Duration
				var misses uint64
				d, misses, err = stepBlocks(tr, root, id, l)
				step = append(step, float64(d))
				if r == 0 && err == nil && misses != plain.Misses {
					ls.stepMismatch++
				}
			}
			var h tracelog.Header
			var events []tracelog.Event
			if err == nil {
				err = timed(&read, "tracelog.readall", func() (err error) {
					h, events, err = tracelog.ReadAll(bytes.NewReader(l.data))
					return err
				})
			}
			if err == nil {
				capacity := tracelog.Summarize(h, events).MaxLiveBytes / 2
				err = timed(&cmp, "sim.compare", func() error {
					_, err := sim.Compare(h.Benchmark, events, capacity, core.Layout451045Threshold1(capacity), costmodel.DefaultModel)
					return err
				})
			}
			if err != nil {
				return nil, err
			}
		}
		med := func(xs []float64) time.Duration { return time.Duration(median(xs)) }
		ls.decode += med(dec)
		ls.offlineByLog[i], ls.attribByLog[i] = med(off), med(att)
		ls.offline += ls.offlineByLog[i]
		ls.attribOn += ls.attribByLog[i]
		ls.stepBlock += med(step)
		ls.readAll += med(read)
		ls.compare += med(cmp)
	}
	return ls, nil
}

// decodeAll decodes a log block by block into one reused block, as the
// served ingest path does, and returns the event count.
func decodeAll(data []byte) (uint64, error) {
	lr, err := tracelog.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	b := tracelog.GetBlock()
	defer tracelog.PutBlock(b)
	var n uint64
	for {
		err := lr.NextBlock(b)
		n += uint64(b.N)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// stepBlocks replays a log through sim.Replayer.StepBlock on the manager a
// default session gets (45-10-45@1 at half the unbounded peak), timing only
// the replay; decoding happens first. It returns the replay's miss count so
// the caller can hold it to OfflineReplay's.
func stepBlocks(tr *tracer, parent int, session int64, l *inputLog) (time.Duration, uint64, error) {
	lr, err := tracelog.NewReader(bytes.NewReader(l.data))
	if err != nil {
		return 0, 0, err
	}
	z := tracelog.NewSummarizer(lr.Header())
	var blocks []*tracelog.EventBlock
	defer func() {
		for _, b := range blocks {
			tracelog.PutBlock(b)
		}
	}()
	for {
		b := tracelog.GetBlock()
		derr := lr.NextBlock(b)
		z.AddBlock(b)
		blocks = append(blocks, b)
		if errors.Is(derr, io.EOF) {
			break
		}
		if derr != nil {
			return 0, 0, derr
		}
	}
	capacity := z.Summary().MaxLiveBytes / 2
	t := time.Now()
	sp := tr.begin(parent, session, "sim.stepblock")
	defer tr.end(sp)
	acc := costmodel.NewAccum(costmodel.DefaultModel)
	mgr, err := core.NewGenerational(core.Layout451045Threshold1(capacity), sim.CostObserver(acc))
	if err != nil {
		return 0, 0, err
	}
	rep := sim.NewReplayer(lr.Header().Benchmark, mgr, acc, nil)
	for _, b := range blocks {
		if err := rep.StepBlock(b); err != nil {
			return 0, 0, err
		}
	}
	res := rep.Finish()
	d := time.Since(t)
	rep.Recycle()
	return d, res.Misses, nil
}

// logLayerMetrics fills the per-layer metrics a layer pass measures.
func logLayerMetrics(m metrics, ls *layerStats) {
	ev := float64(ls.events)
	m.set("tracelog.decode_ns_per_event", ratio(float64(ls.decode.Nanoseconds()), ev), "ns")
	m.set("sim.stepblock_ns_per_event", ratio(float64(ls.stepBlock.Nanoseconds()), ev), "ns")
	m.set("attrib.ns_per_event", ratio(float64((ls.attribOn-ls.offline).Nanoseconds()), ev), "ns")
	m.set("tracelog.bytes_per_event", ratio(float64(ls.bytes), ev), "B")
	m.set("tracelog.readall_s", ls.readAll.Seconds(), "s")
	m.set("sim.replay_ns_per_event", ratio(float64(ls.compare.Nanoseconds()), ev), "ns")
}

// pipelineMetrics sets the pipeline.* metrics from the pipeline.map and
// pipeline.job spans: the slowest job, which sets the map's time, and the
// share of the workers' time the jobs kept busy.
func pipelineMetrics(m metrics, tr *tracer, parallel int) {
	var longest, busy float64
	for _, s := range tr.spansNamed("pipeline.job") {
		d := float64(s.EndNs-s.StartNs) / 1e9
		longest = max(longest, d)
		busy += d
	}
	m.set("pipeline.longest_job_s", longest, "s")
	m.set("pipeline.busy_share", ratio(busy, tr.seconds("pipeline.map")*float64(parallel)), "ratio")
}

// eventBytes is the in-memory size of one decoded tracelog.Event.
const eventBytes = uint64(unsafe.Sizeof(tracelog.Event{}))
