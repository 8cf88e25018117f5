package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/attrib"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/obs"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/tracelog"
)

// countingReader tallies how many body bytes a session consumed.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// ndjsonWriter serializes StreamLines for an events-mode response. It is
// written only from the session's own goroutine: private-manager events fire
// inside the replay, and shared-tier events routed to this session are, by
// construction, caused by this session's own calls.
type ndjsonWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	flusher http.Flusher
	err     error
	lines   uint64
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	nw := &ndjsonWriter{bw: bufio.NewWriterSize(w, 32<<10)}
	nw.enc = json.NewEncoder(nw.bw)
	nw.flusher, _ = w.(http.Flusher)
	return nw
}

func (nw *ndjsonWriter) write(line api.StreamLine) {
	if nw.err != nil {
		return
	}
	nw.err = nw.enc.Encode(line)
	nw.lines++
}

func (nw *ndjsonWriter) flush() {
	if nw.err == nil {
		nw.err = nw.bw.Flush()
	}
	if nw.err == nil && nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// identKey names one piece of guest code in the server-global namespace.
type identKey struct {
	module uint16 // global module ID
	head   uint64
}

// identState tracks the session's relationship with one code identity.
type identState struct {
	gid     uint64 // shared-tier trace ID, once known (adopted or published)
	adopted bool   // session currently holds an adoption ref
}

// sessionRun carries one session's replay plus its shared-tier interplay.
//
// The replay itself runs against a fully private manager via the same
// sim.Replayer the offline simulator uses, so the session's result is
// bit-identical to `ccsim` on the same log regardless of what concurrent
// sessions do. The shared tier rides alongside, attached through the
// replayer's sim.Hooks callouts: Registered (KindCreate/KindAdopt) and
// Regenerated (conflict misses) probe it for an adoptable trace, private
// promotions into the persistent generation publish to it, and Unmapped
// releases the session's references — all bookkeeping layered beside the
// replay, never inside it.
type sessionRun struct {
	srv  *Server
	sess *dbt.Session
	rep  *sim.Replayer
	led  *attrib.Ledger // nil unless the session asked for attribution

	bench  string
	gmods  map[uint16]uint16 // log-local module → global module
	gmodOK map[uint16]bool
	idents map[identKey]*identState

	// remote tracks identities (keyed by log-local module — the portable
	// cluster namespace) whose generation cost a peer node absorbed, so the
	// peer-adoption count and savings are once per identity.
	remote map[identKey]bool

	adoptions     uint64 // distinct identities adopted
	published     uint64 // distinct identities published
	peerAdoptions uint64 // distinct identities served by a peer node
	savedGen      float64

	enc *ndjsonWriter // nil unless events mode
}

func newSessionRun(srv *Server, sess *dbt.Session, bench string, enc *ndjsonWriter) *sessionRun {
	return &sessionRun{
		srv:    srv,
		sess:   sess,
		bench:  bench,
		gmods:  make(map[uint16]uint16),
		gmodOK: make(map[uint16]bool),
		idents: make(map[identKey]*identState),
		enc:    enc,
	}
}

// globalModule resolves a log-local module into the server-global namespace,
// memoizing per session. Exhaustion of the 16-bit space disables sharing for
// the module; the replay is unaffected.
func (sr *sessionRun) globalModule(local uint16) (uint16, bool) {
	if ok, seen := sr.gmodOK[local]; seen {
		return sr.gmods[local], ok
	}
	g, ok := sr.srv.mods.global(sr.bench, local)
	sr.gmodOK[local] = ok
	sr.gmods[local] = g
	return g, ok
}

// observe is the private manager's observer hook. Promotions that land a
// trace in the session's persistent generation are the paper's signal that
// it earned long-term residency, so they publish it to the shared tier; the
// same event stream also feeds the session's NDJSON feed and the server-wide
// event counter (wired separately in the observer chain).
func (sr *sessionRun) observe(e obs.Event) {
	if sr.enc != nil {
		w := api.FromObs(e)
		sr.srv.tagNode(&w)
		sr.enc.write(api.StreamLine{Event: &w})
		if e.Kind == obs.KindProgress {
			sr.enc.flush()
		}
	}
	if e.Kind != obs.KindPromote || e.To != obs.LevelPersistent {
		return
	}
	if sr.rep == nil {
		return
	}
	size, module, head, ok := sr.rep.TraceInfo(e.Trace)
	if !ok {
		return
	}
	gmod, ok := sr.globalModule(module)
	if !ok {
		return
	}
	key := identKey{module: gmod, head: head}
	st := sr.idents[key]
	if st == nil {
		st = &identState{}
		sr.idents[key] = st
	}
	gid, err := sr.sess.Publish(st.gid, uint64(size), gmod, head)
	if err != nil {
		// The trace cannot live in the shared tier (bigger than the whole
		// tier); it simply is not shared.
		return
	}
	if st.gid == 0 {
		sr.published++
	}
	st.gid = gid
	sr.srv.notePublished(gid)
	if sr.srv.cluster != nil {
		// Queue the publication for its shard owner in the portable cluster
		// namespace (log-local module). Owned shards return false and need no
		// replication: the local shared tier is the shard.
		sr.srv.cluster.NotePublish(cluster.Key{Bench: sr.bench, Module: module, Head: head}, uint64(size))
	}
}

// tryAdopt probes the shared tier for this identity and attaches if a
// size-matched trace is resident. Savings are counted once per held ref.
// It reports whether the session now holds (or already held) a shared-tier
// ref for the identity — i.e. the shared tier has the trace.
func (sr *sessionRun) tryAdopt(local uint16, head uint64, size uint32) bool {
	gmod, ok := sr.globalModule(local)
	if !ok {
		return false
	}
	key := identKey{module: gmod, head: head}
	st := sr.idents[key]
	if st != nil && st.adopted {
		return true
	}
	gid, ok := sr.sess.Adopt(gmod, head, uint64(size))
	if !ok {
		return false
	}
	if st == nil {
		st = &identState{}
		sr.idents[key] = st
	}
	st.gid = gid
	st.adopted = true
	sr.adoptions++
	sr.savedGen += sr.srv.model.TraceGen(int(size))
	return true
}

// tryRemoteAdopt resolves a local adoption miss against the cluster: the
// shard owner for the identity may hold a publication this node's tier never
// saw. A hit counts once per identity (like tryAdopt) and emits a
// KindPeerAdopt event tagged with the serving node onto both event feeds.
// The private replay is untouched either way — it regenerates exactly as
// offline ccsim would; the service just doesn't pay for the generation.
func (sr *sessionRun) tryRemoteAdopt(local uint16, head uint64, size uint32) bool {
	n := sr.srv.cluster
	if n == nil {
		return false
	}
	r, ok := n.RemoteAdopt(context.Background(), cluster.Key{Bench: sr.bench, Module: local, Head: head}, uint64(size))
	if !ok {
		return false
	}
	key := identKey{module: local, head: head}
	if sr.remote == nil {
		sr.remote = make(map[identKey]bool)
	}
	if !sr.remote[key] {
		sr.remote[key] = true
		sr.peerAdoptions++
		sr.savedGen += sr.srv.model.TraceGen(int(size))
		e := obs.Event{
			Kind:   obs.KindPeerAdopt,
			Trace:  r.TraceID,
			Size:   uint64(size),
			Module: local,
			Proc:   sr.sess.ID(),
			Node:   r.Node,
		}
		sr.srv.counter.Observe(e)
		sr.srv.router.Observe(e)
	}
	return true
}

// sessionRun implements sim.Hooks: the replayer calls out at the fixed
// interplay points, so the shared-tier bookkeeping runs inside the batched
// kernel without a per-event wrapper around it.

// Registered handles a KindCreate/KindAdopt entering the replay: the shared
// tier may already hold this guest code, published by a peer — locally, or
// on the cluster node that owns the identity's shard.
func (sr *sessionRun) Registered(trace uint64, size uint32, module uint16, head uint64) {
	if sr.tryAdopt(module, head, size) {
		return
	}
	sr.tryRemoteAdopt(module, head, size)
}

// Regenerated handles a conflict miss: the private cache is regenerating
// this trace; a shared-tier copy, if one appeared since creation, saves that
// work too. When the probe fails on an identity the shared tier once held
// (published or adopted earlier), the regeneration is upgraded in the
// session's ledger to an adoption miss — the private ledger alone cannot see
// that the shared tier lost a publisher. ReclassifyLastMiss is a
// cell-to-cell move, so cause conservation is untouched.
func (sr *sessionRun) Regenerated(trace uint64, size uint32, module uint16, head uint64) {
	if sr.tryAdopt(module, head, size) {
		return
	}
	if sr.tryRemoteAdopt(module, head, size) {
		// The regeneration's cost was absorbed by the peer that served the
		// identity; the ledger upgrades the miss so attribution separates
		// cluster-served regenerations from true capacity losses.
		if sr.led != nil {
			sr.led.ReclassifyLastMiss(trace, obs.ReasonRemoteAdoption)
		}
		return
	}
	if sr.led == nil {
		return
	}
	gmod, ok := sr.globalModule(module)
	if !ok {
		return
	}
	if st := sr.idents[identKey{module: gmod, head: head}]; st != nil && st.gid != 0 {
		sr.led.ReclassifyLastMiss(trace, obs.ReasonAdoptionMiss)
	}
}

// Unmapped releases the session's shared-tier references under the module.
func (sr *sessionRun) Unmapped(module uint16) {
	if ok, seen := sr.gmodOK[module]; seen && ok {
		gmod := sr.gmods[module]
		sr.sess.UnmapModule(gmod)
		// The refs under this module are gone; a reloaded module may
		// re-adopt, so the identities forget their held state.
		for key, st := range sr.idents {
			if key.module == gmod {
				st.adopted = false
			}
		}
	}
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.Error{Error: fmt.Sprintf(format, args...)})
}

// handleSession serves POST /v1/sessions: admission, replay, result.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	cfg, err := api.ParseSessionQuery(r.URL.Query())
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission is decided before the first body byte is read: a rejected
	// session costs the server nothing, and accepted sessions never share
	// their replay slot with an unbounded number of peers.
	if err := s.adm.acquire(r.Context()); err != nil {
		if errors.Is(err, errOverloaded) {
			// The limits, not the startup config: autoscale and Resize move them.
			slots, queue, _ := s.adm.limits()
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "session limit reached (limits: %d running, %d queued)",
				slots, queue)
		}
		// Context errors mean the client left while queued; nothing to say.
		return
	}
	defer s.adm.release()

	sess, err := s.sys.OpenSession()
	if err != nil {
		s.recordFailure()
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer sess.Close()

	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxSessionBytes)}

	var enc *ndjsonWriter
	if cfg.Events {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc = newNDJSONWriter(w)
		// Shared-tier events caused by this session's publishes, adoptions,
		// and unmaps carry its ID; route them into the merged feed.
		s.router.attach(sess.ID(), obs.Func(func(e obs.Event) {
			we := api.FromObs(e)
			s.tagNode(&we)
			enc.write(api.StreamLine{Event: &we})
		}))
		defer s.router.detach(sess.ID())
	}

	sr, capacity, err := s.runSession(cfg, sess, body, enc)
	if err != nil {
		s.recordFailure()
		s.failSession(w, enc, err)
		return
	}
	out := s.finishSession(sr, cfg.Tenant, capacity, body.n)

	if enc != nil {
		enc.write(api.StreamLine{Result: &out})
		enc.flush()
		return
	}
	if r.Header.Get("Accept") == api.StatsContentType {
		data, err := out.MarshalBinary()
		if err == nil {
			w.Header().Set("Content-Type", api.StatsContentType)
			_, _ = w.Write(data)
			return
		}
		// Fall through to JSON, the debug path, on any marshal surprise.
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// runSession replays the body as session sess: the private replay (built
// exactly as OfflineReplay builds it) plus the shared-tier interplay.
func (s *Server) runSession(cfg api.SessionConfig, sess *dbt.Session, body io.Reader, enc *ndjsonWriter) (*sessionRun, uint64, error) {
	var sr *sessionRun
	_, capacity, err := replay(cfg, body, func(bench string, capacity uint64) (*sim.Replayer, error) {
		sr = newSessionRun(s, sess, bench, enc)
		// The replay progress observer is attached only in events mode:
		// without one the kernel takes its counter-only fast path, and
		// nothing else consumes progress events.
		var progress obs.Observer
		if enc != nil {
			progress = obs.Func(sr.observe)
		}
		rep, err := newReplay(cfg, bench, capacity, s.model, sess.ID(),
			obs.Combine(s.counter, obs.Func(s.trackPolicy), obs.Func(sr.observe)), progress)
		if err != nil {
			return nil, err
		}
		sr.rep = rep
		sr.rep.SetHooks(sr)
		sr.led = sr.rep.Ledger()
		return rep, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return sr, capacity, nil
}

// finishSession closes a completed run into its wire result and folds it
// into the server's counters and attribution aggregates.
func (s *Server) finishSession(sr *sessionRun, tenant string, capacity, bodyBytes uint64) api.SessionResult {
	out := api.FromSim(sr.rep.Finish())
	out.Session = sr.sess.ID()
	out.CapacityBytes = capacity
	out.Events = sr.rep.Events()
	out.Shared = api.SharedSavings{
		Adoptions:            sr.adoptions,
		Published:            sr.published,
		PeerAdoptions:        sr.peerAdoptions,
		SavedGenInstructions: sr.savedGen,
	}
	if sr.led != nil {
		snap := sr.led.Snapshot()
		out.Causes = causeCounts(snap)
		s.attrib.Add(snap)
		if tenant != "" {
			s.tenantAggregate(tenant).Add(snap)
		}
	}
	s.recordResult(out, bodyBytes)
	recycle(sr.rep) // out is a value copy; the run's pooled scratch is done
	return out
}

// replay decodes a tracelog body and drives it through the batched kernel.
// start builds the replayer once the capacity is known. An absolute
// capacity is known up front, so blocks replay as they decode off the wire;
// a fractional one is a share of the log's unbounded peak, so the whole log
// is decoded first and the decoded blocks are retained (pooled,
// struct-of-arrays) while the Summarizer scans them — offline ccsim's
// procedure without a second decode or a full event-slice buffer.
func replay(cfg api.SessionConfig, body io.Reader, start func(bench string, capacity uint64) (*sim.Replayer, error)) (*sim.Replayer, uint64, error) {
	lr, err := tracelog.NewReader(body)
	if err != nil {
		return nil, 0, err
	}
	bench := lr.Header().Benchmark

	if cfg.CapacityBytes > 0 {
		rep, err := start(bench, cfg.CapacityBytes)
		if err != nil {
			return nil, 0, err
		}
		b := tracelog.GetBlock()
		defer tracelog.PutBlock(b)
		for {
			derr := lr.NextBlock(b)
			if b.N > 0 {
				if err := rep.StepBlock(b); err != nil {
					return nil, 0, err
				}
			}
			if errors.Is(derr, io.EOF) {
				return rep, cfg.CapacityBytes, nil
			}
			if derr != nil {
				return nil, 0, derr
			}
		}
	}

	z := tracelog.NewSummarizer(lr.Header())
	var blocks []*tracelog.EventBlock
	defer func() {
		for _, b := range blocks {
			tracelog.PutBlock(b)
		}
	}()
	var total uint64
	for {
		b := tracelog.GetBlock()
		derr := lr.NextBlock(b)
		z.AddBlock(b)
		total += uint64(b.N)
		blocks = append(blocks, b)
		if errors.Is(derr, io.EOF) {
			break
		}
		if derr != nil {
			return nil, 0, derr
		}
	}
	capacity, err := cfg.Capacity(z.Summary().MaxLiveBytes)
	if err != nil {
		return nil, 0, err
	}
	rep, err := start(bench, capacity)
	if err != nil {
		return nil, 0, err
	}
	rep.SetTotal(total)
	for _, b := range blocks {
		if err := rep.StepBlock(b); err != nil {
			return nil, 0, err
		}
	}
	return rep, capacity, nil
}

// accPool recycles cost accumulators across replays; newReplay draws one,
// recycle returns it with the rest of the replay scratch.
var accPool = sync.Pool{New: func() any { return new(costmodel.Accum) }}

// newReplay builds the private manager cfg describes over capacity bytes
// as process proc, under cfg's load pressure, charging a pooled accumulator
// under model, and starts a replay of it. extra sees the manager's events
// and progress the replay's progress; either may be nil.
func newReplay(cfg api.SessionConfig, bench string, capacity uint64, model costmodel.Model, proc int, extra, progress obs.Observer) (*sim.Replayer, error) {
	spec, err := cfg.GraphSpec(capacity)
	if err != nil {
		return nil, err
	}
	acc := accPool.Get().(*costmodel.Accum)
	acc.Reset(model)
	mgr, err := core.NewGraph(spec, obs.Combine(sim.CostObserver(acc), extra))
	if err != nil {
		accPool.Put(acc)
		return nil, err
	}
	mgr.SetProcID(proc)
	mgr.SetLoadPressure(cfg.Pressure)
	return sim.NewReplayer(bench, mgr, acc, progress), nil
}

// recycle returns a finished replay's pooled scratch — the replayer's meta
// tables and the cost accumulator. Only safe once the result has been
// copied out: nothing may reference the pools afterwards.
func recycle(rep *sim.Replayer) {
	if res := rep.Result(); res.Overhead != nil {
		accPool.Put(res.Overhead)
	}
	rep.Recycle()
}

// failSession reports a terminal session error in whichever framing the
// response is using.
func (s *Server) failSession(w http.ResponseWriter, enc *ndjsonWriter, err error) {
	if enc != nil {
		enc.write(api.StreamLine{Error: err.Error()})
		enc.flush()
		return
	}
	var tooBig *http.MaxBytesError
	status := http.StatusBadRequest
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	jsonError(w, status, "%v", err)
}
