package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// sessionRec is one session as the load generator saw it. Times are
// offsets from the start of the phase.
type sessionRec struct {
	due, sent, done time.Duration
	log             int
	attrib          bool
	events          uint64
	res             api.SessionResult
	bad             string // why the session failed; "" when it passed
}

// ok reports whether the session completed and passed its checks.
func (r *sessionRec) ok() bool { return r.bad == "" }

// sendSession sends one session's log and checks the reply against the
// log's offline expectation. tamper, when set, corrupts the reply before
// the check, as the benchmark's own tests do to prove a bad result counts.
func sendSession(ctx context.Context, tr *tracer, parent int, id int64, cl *client.Client,
	l *inputLog, exp expectation, attrib bool, tamper func(*api.SessionResult)) (api.SessionResult, string) {
	sp := tr.begin(parent, id, "server.session")
	res, err := cl.Session(ctx, client.SessionOptions{Attrib: attrib}, bytes.NewReader(l.data))
	tr.end(sp)
	switch {
	case errors.Is(err, client.ErrOverloaded):
		return res, "rejected with 429"
	case err != nil:
		return res, err.Error()
	}
	if tamper != nil {
		tamper(&res)
	}
	sp = tr.begin(parent, id, "check.result")
	defer tr.end(sp)
	return res, checkSession(res, exp, attrib)
}

// countFailures adds a phase's sessions to the outcome and reports the
// first few failures on standard error.
func countFailures(o *outcome, recs []sessionRec) {
	shown := 0
	for i := range recs {
		o.attempted++
		if !recs[i].ok() {
			o.failed++
			if shown < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: session %d failed: %s\n", i, recs[i].bad)
				shown++
			}
		}
	}
}

// sessionStats are the latency and throughput figures of one phase.
type sessionStats struct {
	latMs   []float64 // per completed session, from due (open loop) or send
	events  uint64
	elapsed time.Duration // phase start to last completion
	cpu     time.Duration // the process's CPU time (cluster rounds only)
}

func summarize(recs []sessionRec) sessionStats {
	var st sessionStats
	for i := range recs {
		r := &recs[i]
		if r.done > st.elapsed {
			st.elapsed = r.done
		}
		if !r.ok() {
			continue
		}
		st.latMs = append(st.latMs, float64(r.done-r.due)/1e6)
		st.events += r.events
	}
	return st
}

// sharedTierMetrics sets the core.* metrics from the sessions' shared-tier
// accounting: what adoption saved and what the sessions published.
func sharedTierMetrics(m metrics, recs []sessionRec) {
	var adopt, gens, published, saved float64
	for i := range recs {
		if !recs[i].ok() {
			continue
		}
		r := recs[i].res
		adopt += float64(r.Shared.Adoptions + r.Shared.PeerAdoptions)
		gens += float64(r.ColdCreates + r.Regenerations)
		published += float64(r.Shared.Published)
		saved += r.Shared.SavedGenInstructions
	}
	m.set("core.adopt_ratio", ratio(adopt, adopt+gens), "ratio")
	m.set("core.published", published, "count")
	m.set("core.saved_gen_instr", saved, "instr")
}

// serverSplit sets server.offline_replay_s, the mean offline replay time
// of the sessions' logs (ledger matched), and server.overhead_s, the mean
// of each session's service time minus that replay time: HTTP, admission,
// shared-tier hooks and event routing.
func serverSplit(m metrics, recs []sessionRec, ls *layerStats) {
	var offline, overhead float64
	n := 0
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		off := ls.offlineByLog[r.log]
		if r.attrib {
			off = ls.attribByLog[r.log]
		}
		offline += off.Seconds()
		overhead += (r.done - r.sent - off).Seconds()
		n++
	}
	m.set("server.offline_replay_s", ratio(offline, float64(n)), "s")
	m.set("server.overhead_s", ratio(overhead, float64(n)), "s")
}

// admissionSampler polls the servers' admission occupancy at a fixed
// cadence while a traced phase runs. Only traced phases report admission
// figures, so an untraced phase gets a nil sampler and no wake-ups in the
// CPU time it measures.
type admissionSampler struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	queued []float64
}

func startSampler(t *tracer, every time.Duration, srvs []*server.Server) *admissionSampler {
	if t == nil {
		return nil
	}
	s := &admissionSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				q := 0
				for _, srv := range srvs {
					_, queued, _ := srv.AdmissionLoad()
					q += queued
				}
				s.queued = append(s.queued, float64(q))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the queue-depth samples and the
// servers' running 429 total; nothing for a nil sampler.
func (s *admissionSampler) finish(srvs []*server.Server) ([]float64, uint64) {
	if s == nil {
		return nil, 0
	}
	close(s.stop)
	s.wg.Wait()
	var rejected uint64
	for _, srv := range srvs {
		_, _, r := srv.AdmissionLoad()
		rejected += r
	}
	return s.queued, rejected
}

// admissionMetrics sets server.queued_mean and server.rejected.
func admissionMetrics(m metrics, queued []float64, rejected uint64) {
	var sum float64
	for _, q := range queued {
		sum += q
	}
	m.set("server.queued_mean", ratio(sum, float64(len(queued))), "ratio")
	m.set("server.rejected", float64(rejected), "count")
}

// newHTTPClient is the transport for load and peer traffic: keep-alive
// connections, and a timeout so a hung server fails the run instead of
// stalling it.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

func discardLogf(string, ...any) {}
