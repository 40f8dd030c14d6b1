package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	fastbcc "repro"
	"repro/internal/bccdhttp"
	"repro/internal/persist"
	"repro/internal/wire"
)

const (
	batchPath  = "/v1/graphs/g/query/batch"
	mutatePath = "/v1/graphs/g/edges"
)

// storeConfig is bccd's default Store (cmd/bccd's flag defaults) with a
// data dir: durable, fsync on, 25 ms coalesce, workers = GOMAXPROCS.
func storeConfig(dataDir string) fastbcc.StoreConfig {
	return fastbcc.StoreConfig{
		MaxConcurrentBuilds: 16,
		BuildQueueWait:      time.Second,
		MutationCoalesce:    25 * time.Millisecond,
		DataDir:             dataDir,
	}
}

// server is one durable Store served by bccdhttp on loopback TCP, with
// one client connection for the reader and one for the writer, plus the
// plain Store the timed loads go to.
type server struct {
	store          *fastbcc.Store
	builds         *fastbcc.Store
	dataDir        string
	handler        http.Handler
	hs             *http.Server
	served         chan error
	base           string
	reader, writer *http.Client
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func startServer(store *fastbcc.Store, dataDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := bccdhttp.NewHandler(store, bccdhttp.Config{})
	s := &server{
		store: store, builds: fastbcc.NewStore(0), dataDir: dataDir, handler: h,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		reader: newClient(), writer: newClient(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server, waits for it, and closes both Stores.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		s.hs.Close() // the drain timed out: drop the connections
	}
	<-s.served
	s.reader.CloseIdleConnections()
	s.writer.CloseIdleConnections()
	s.store.Close()
	s.builds.Close()
}

// roundTrip sends req and returns the status and the whole body.
func roundTrip(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func post(c *http.Client, url, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	return expectOK(roundTrip(c, req))
}

func get(c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return expectOK(roundTrip(c, req))
}

func expectOK(code int, body []byte, err error) ([]byte, error) {
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", code, body)
	}
	return body, err
}

// setup is one timed set-up: Store creation and Recover (bccd's
// start-up), the first Load, a synchronous persist of the base snapshot,
// server start, and a fixed count of warm-up loads into the build Store
// and of warm-up round trips. The first set-up also builds the oracle
// and picks the churn edge from the base snapshot; that is the
// benchmark's work and is not timed.
func setup(c *config, r *result, in *input, i int) (*server, time.Duration, error) {
	dataDir := filepath.Join(c.dir, "data", fmt.Sprintf("store-%d", i))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	var untimed time.Duration
	store := fastbcc.NewStoreWithConfig(storeConfig(dataDir))
	if _, err := store.Recover(context.Background()); err != nil {
		store.Close()
		return nil, 0, err
	}
	_, snap, _, err := load(store, in)
	if err != nil {
		store.Close()
		return nil, 0, err
	}
	if err := in.w.check(snap); err != nil {
		r.setupOK = false
		r.note("setup: %v", err)
	}
	if in.o == nil {
		u0 := time.Now()
		in.o, err = newOracle(c.size, c.seed, in.g, snap)
		if err == nil {
			in.churn, err = churnEdge(c.seed, in.edges, snap.Index)
		}
		untimed = time.Since(u0)
		if err != nil {
			snap.Release()
			store.Close()
			return nil, 0, err
		}
	}
	snap.Release()
	if err := store.Persist("g"); err != nil {
		store.Close()
		return nil, 0, fmt.Errorf("persisting the base snapshot: %w", err)
	}
	sv, err := startServer(store, dataDir)
	if err != nil {
		store.Close()
		return nil, 0, err
	}
	for j := 0; j < c.size.warmLoads; j++ {
		_, snap, _, err := load(sv.builds, in)
		if err != nil {
			sv.close()
			return nil, 0, err
		}
		if err := in.w.check(snap); err != nil {
			r.setupOK = false
			r.note("setup: %v", err)
		}
		snap.Release()
	}
	var warm tally
	sv.read(in.o, time.Time{}, c.size.warmReqs, nil, &warm)
	if warm.failed > 0 {
		r.setupOK = false
		r.note("setup: %d of %d warm-up round trips failed: %v", warm.failed, warm.attempted, warm.errs)
	}
	return sv, time.Since(t0) - untimed, nil
}

// churnEdge picks, in a seeded order, an edge whose endpoints are
// biconnected and 2-edge-connected: a parallel copy of it, inserted or
// deleted, changes no block, cut vertex, bridge or query answer.
func churnEdge(seed uint64, edges []fastbcc.Edge, idx *fastbcc.Index) (fastbcc.Edge, error) {
	rng := rand.New(rand.NewPCG(seed, 0x636875726e))
	for _, i := range rng.Perm(len(edges)) {
		e := edges[i]
		if e.U != e.W && idx.Biconnected(e.U, e.W) && idx.TwoEdgeConnected(e.U, e.W) {
			return e, nil
		}
	}
	return fastbcc.Edge{}, errors.New("no edge with biconnected, 2-edge-connected endpoints")
}

// phaseStats is what one timed serve phase measured.
type phaseStats struct {
	seconds             float64
	reader, writer      tally
	batch, scalar       []float64 // round trips, µs
	queries             int64
	mutate              []float64 // mutation acks, ms
	late                []float64 // writer tick lateness, ms
	acks                []time.Time
	fast, collapsed     int
	queued              int
	flushes             map[int64]fastbcc.BuildTrace // by StartedAt
	rebuilds            map[int64]bool               // versions published by plain Rebuilds
	rebuildMs           []float64
	retiredMax, liveMax int64
	fresh               []float64 // ms
	freshUnmatched      int
}

func (p *phaseStats) flushMs() []float64 {
	var out []float64
	for _, t := range p.flushes {
		out = append(out, ms(t.Duration))
	}
	return out
}

// runPhase runs the reader and the writer for d, drains the pending
// deltas, and computes freshness from the Store's build traces.
func (s *server) runPhase(c *config, r *result, in *input, d time.Duration, tr *tracer) *phaseStats {
	p := &phaseStats{flushes: map[int64]fastbcc.BuildTrace{}, rebuilds: map[int64]bool{}}
	start := time.Now()
	end := start.Add(d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.write(c, in, p, start, end, tr)
	}()
	rs := s.read(in.o, end, c.maxReads, tr, &p.reader)
	<-done
	p.seconds = time.Since(start).Seconds()
	p.batch, p.scalar, p.queries = rs.batch, rs.scalar, rs.queries

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.store.FlushDeltas(ctx, "g"); err != nil {
		p.writer.fail("draining deltas: %v", err)
	}
	p.collectFlushes(s.store, start)
	for _, a := range p.acks {
		var best *fastbcc.BuildTrace
		for k := range p.flushes {
			t := p.flushes[k]
			if !t.StartedAt.Before(a) && (best == nil || t.StartedAt.Before(best.StartedAt)) {
				best = &t
			}
		}
		if best == nil {
			p.freshUnmatched++
			continue
		}
		p.fresh = append(p.fresh, ms(best.StartedAt.Add(best.Duration).Sub(a)))
	}
	r.merge(&p.reader)
	r.merge(&p.writer)
	return p
}

// collectFlushes adds the flush builds in the Store's trace ring that
// started after start, skipping the plain Rebuilds of a traced phase.
func (p *phaseStats) collectFlushes(st *fastbcc.Store, start time.Time) {
	ts, err := st.Trace("g")
	if err != nil {
		return
	}
	for _, t := range ts {
		if t.Outcome == fastbcc.BuildOK && t.StartedAt.After(start) && !p.rebuilds[t.Version] {
			p.flushes[t.StartedAt.UnixNano()] = t
		}
	}
}

// e2e computes the serve phase's end-to-end metrics. p90 is the
// round-trip percentile that sits inside one mode on every workload: on
// one P a fifth or more of the round trips stall behind a flush build, so
// p90 is inside the stall, while at 2 Ps p99 follows host steal.
func (p *phaseStats) e2e() map[string]metric {
	return map[string]metric{
		"batch_us_p90":  {quantile(p.batch, 0.9), "us"},
		"scalar_us_p90": {quantile(p.scalar, 0.9), "us"},
		"fresh_ms_p50":  {quantile(p.fresh, 0.5), "ms"},
		"fresh_ms_p90":  {quantile(p.fresh, 0.9), "ms"},
	}
}

// stalledShare is the share of round trips that took longer than 10 ms:
// on one P, those that waited behind a flush build.
func stalledShare(rts ...[]float64) float64 {
	var n, slow int
	for _, xs := range rts {
		for _, x := range xs {
			n++
			if x > 10_000 {
				slow++
			}
		}
	}
	return float64(slow) / float64(max(n, 1))
}

// report adds the phase's sample counts, the percentiles that are not
// metrics, and the traffic accounting.
func (p *phaseStats) report(r *result, phase string) {
	r.note("samples %s batches=%d scalars=%d mutations=%d fresh=%d fresh_unmatched=%d",
		phase, len(p.batch), len(p.scalar), len(p.mutate), len(p.fresh), p.freshUnmatched)
	r.note("tails %s batch_us_p50=%.1f batch_us_p95=%.1f batch_us_p99=%.1f scalar_us_p50=%.1f scalar_us_p95=%.1f scalar_us_p99=%.1f stalled_share=%.4f queries_per_s=%.0f mutate_ms_p50=%.3f mutate_ms_p90=%.3f",
		phase, quantile(p.batch, 0.5), quantile(p.batch, 0.95), quantile(p.batch, 0.99),
		quantile(p.scalar, 0.5), quantile(p.scalar, 0.95), quantile(p.scalar, 0.99),
		stalledShare(p.batch, p.scalar), float64(p.queries)/p.seconds, quantile(p.mutate, 0.5), quantile(p.mutate, 0.9))
	perFlush := 0.0
	if len(p.flushes) > 0 {
		perFlush = float64(p.queued) / float64(len(p.flushes))
	}
	r.note("traffic %s fast=%d collapsed=%d queued=%d flushes=%d deltas_per_flush=%.2f flush_ms_p50=%.1f tick_late_ms_p50=%.3f tick_late_ms_max=%.3f",
		phase, p.fast, p.collapsed, p.queued, len(p.flushes), perFlush, median(p.flushMs()),
		quantile(p.late, 0.5), quantile(p.late, 1))
}

// checkFinal checks the serving snapshot after the churn drained.
func (s *server) checkFinal(r *result, w want) error {
	snap, err := s.store.Acquire("g")
	if err != nil {
		return err
	}
	defer snap.Release()
	r.attempted++
	if err := w.check(snap); err != nil {
		r.wrongAnswer("after churn: %v", err)
	}
	return nil
}

// timeRecover restarts over dataDir: a fresh Store, Recover, and a check
// of the recovered snapshot. It returns Recover's wall time in ms.
func timeRecover(r *result, dataDir string, w want) (float64, error) {
	st := fastbcc.NewStoreWithConfig(storeConfig(dataDir))
	defer st.Close()
	t0 := time.Now()
	rep, err := st.Recover(context.Background())
	took := ms(time.Since(t0))
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	if len(rep.Graphs) != 1 || len(rep.Failures) != 0 {
		return 0, fmt.Errorf("recover: %d graphs, failures %v", len(rep.Graphs), rep.Failures)
	}
	snap, err := st.Acquire("g")
	if err != nil {
		return 0, err
	}
	defer snap.Release()
	r.attempted++
	if err := w.check(snap); err != nil {
		r.wrongAnswer("recovered: %v", err)
	}
	return took, nil
}

// readerStats is what the reader measured.
type readerStats struct {
	batch, scalar []float64 // µs
	queries       int64
}

// directScratch holds the buffers of the traced direct calls, reused
// like the handler's pooled scratch.
type directScratch struct {
	h   *fastbcc.Handle
	qs  []fastbcc.Query
	as  []fastbcc.Answer
	buf []byte
}

// read is the closed-loop reader: batch, scalar, batch, ... until end
// (a zero end means no deadline) or maxReads round trips (0 = no limit).
func (s *server) read(o *oracle, end time.Time, maxReads int, tr *tracer, t *tally) *readerStats {
	rs := &readerStats{}
	var ds directScratch
	if tr != nil {
		ds.h = s.store.NewHandle()
		defer ds.h.Close()
	}
	var ans []fastbcc.Answer
	for i := 0; (end.IsZero() || time.Now().Before(end)) && (maxReads == 0 || i < maxReads); i++ {
		t.attempted++
		if i%2 == 0 {
			b := (i / 2) % len(o.frames)
			t0 := time.Now()
			body, err := post(s.reader, s.base+batchPath, wire.ContentType, o.frames[b])
			t1 := time.Now()
			if err == nil {
				ans, _, err = wire.ReadResponse(bytes.NewReader(body), ans)
			}
			switch {
			case err != nil:
				t.fail("batch %d: %v", b, err)
			case !o.checkBatch(b, ans):
				t.wrongAnswer("batch %d", b)
			default:
				rs.batch = append(rs.batch, us(t1.Sub(t0)))
				rs.queries += batchSize
				if tr != nil {
					s.traceBatch(tr, &ds, o, b, t0, t1, t)
				}
			}
			continue
		}
		q := (i / 2) % len(o.paths)
		t0 := time.Now()
		body, err := get(s.reader, s.base+o.paths[q])
		t1 := time.Now()
		switch {
		case err != nil:
			t.fail("scalar %s: %v", o.paths[q], err)
		case !o.checkScalar(q, body):
			t.wrongAnswer("scalar %s: %.200s", o.paths[q], body)
		default:
			rs.scalar = append(rs.scalar, us(t1.Sub(t0)))
			rs.queries++
			if tr != nil {
				s.traceScalar(tr, o, q, t0, t1, t)
			}
		}
	}
	return rs
}

// traceBatch records one traced batch round trip and splits it with
// direct calls on the same request:
//
//	op.batch              the TCP round trip; self = loopback + net/http
//	└─ bccdhttp.batch     ServeHTTP via httptest.NewRecorder (no TCP)
//	   ├─ wire.decode     wire.ReadRequest
//	   ├─ store.pin ×2    Handle.Acquire, Handle.Release
//	   ├─ querybatch.exec Snapshot.QueryBatch
//	   └─ wire.encode     wire.AppendResponse
func (s *server) traceBatch(tr *tracer, ds *directScratch, o *oracle, b int, t0, t1 time.Time, t *tally) {
	op := tr.newOp()
	root := tr.add(op, -1, "op.batch", t0, t1)
	req := httptest.NewRequest(http.MethodPost, batchPath, bytes.NewReader(o.frames[b]))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	t2 := time.Now()
	s.handler.ServeHTTP(rec, req)
	t3 := time.Now()
	hs := tr.add(op, root, "bccdhttp.batch", t2, t3)
	if rec.Code != http.StatusOK {
		t.fail("direct batch %d: status %d", b, rec.Code)
		return
	}

	var err error
	ds.qs, err = wire.ReadRequest(bytes.NewReader(o.frames[b]), ds.qs)
	t4 := time.Now()
	if err != nil {
		t.fail("direct decode %d: %v", b, err)
		return
	}
	snap, err := ds.h.Acquire("g")
	t5 := time.Now()
	if err != nil {
		t.fail("direct acquire: %v", err)
		return
	}
	ds.as, err = snap.QueryBatch(context.Background(), ds.qs, ds.as)
	t6 := time.Now()
	ds.buf = wire.AppendResponse(ds.buf[:0], snap.Version, ds.as)
	t7 := time.Now()
	ds.h.Release()
	t8 := time.Now()
	tr.add(op, hs, "wire.decode", t3, t4)
	tr.add(op, hs, "store.pin", t4, t5)
	tr.add(op, hs, "querybatch.exec", t5, t6)
	tr.add(op, hs, "wire.encode", t6, t7)
	tr.add(op, hs, "store.pin", t7, t8)
	if err != nil {
		t.fail("direct batch %d: %v", b, err)
	} else if !o.checkBatch(b, ds.as) {
		t.wrongAnswer("direct batch %d", b)
	}
}

// traceScalar records one traced scalar round trip:
//
//	op.scalar             the TCP round trip; self = loopback + net/http
//	└─ bccdhttp.scalar    ServeHTTP via httptest.NewRecorder (no TCP)
func (s *server) traceScalar(tr *tracer, o *oracle, q int, t0, t1 time.Time, t *tally) {
	op := tr.newOp()
	root := tr.add(op, -1, "op.scalar", t0, t1)
	req := httptest.NewRequest(http.MethodGet, o.paths[q], nil)
	rec := httptest.NewRecorder()
	t2 := time.Now()
	s.handler.ServeHTTP(rec, req)
	t3 := time.Now()
	tr.add(op, root, "bccdhttp.scalar", t2, t3)
	if rec.Code != http.StatusOK || !o.checkScalar(q, rec.Body.Bytes()) {
		t.wrongAnswer("direct scalar %s: status %d", o.paths[q], rec.Code)
	}
}

// write is the writer: one mutation per tick, alternately inserting and
// deleting the parallel copy, until end. It also collects the flush
// traces each tick (the ring keeps only the last 16 builds).
func (s *server) write(c *config, in *input, p *phaseStats, start, end time.Time, tr *tracer) {
	t := &p.writer
	var side *persist.Journal
	if tr != nil {
		var err error
		side, _, err = persist.OpenJournal(filepath.Join(c.dir, "data", "side.wal"))
		if err != nil {
			t.fail("opening the side journal: %v", err)
			return
		}
		defer side.Close()
	}
	one := []fastbcc.Edge{in.churn}
	jone := []persist.JEdge{{U: in.churn.U, W: in.churn.W}}
	var frame []byte
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * c.size.tick)
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		p.late = append(p.late, ms(time.Since(due)))
		var adds, dels []fastbcc.Edge
		var jadds, jdels []persist.JEdge
		if k%2 == 0 {
			adds, jadds = one, jone
		} else {
			dels, jdels = one, jone
		}
		t.attempted++
		frame = wire.AppendMutation(frame[:0], adds, dels)
		t0 := time.Now()
		body, err := post(s.writer, s.base+mutatePath, wire.MutationContentType, frame)
		t1 := time.Now()
		var mr fastbcc.MutationResult
		if err == nil {
			mr, err = wire.ReadMutationResult(bytes.NewReader(body))
		}
		if err != nil {
			t.fail("mutation %d: %v", k, err)
			continue
		}
		p.mutate = append(p.mutate, ms(t1.Sub(t0)))
		p.count(mr)
		if mr.Queued > 0 {
			p.acks = append(p.acks, t1)
		}
		if tr != nil {
			s.traceMutate(tr, p, side, uint64(k+1), adds, dels, jadds, jdels, t0, t1)
			if k%c.size.rebuildGap == c.size.rebuildGap-1 {
				s.tracedRebuild(p, in.w)
			}
			st := s.store.Stats()
			p.retiredMax = max(p.retiredMax, int64(st.RetiredSnapshots))
			p.liveMax = max(p.liveMax, st.LiveSnapshots)
		}
		p.collectFlushes(s.store, start)
	}
}

func (p *phaseStats) count(mr fastbcc.MutationResult) {
	p.fast += mr.Fast
	p.collapsed += mr.Collapsed
	p.queued += mr.Queued
}

// traceMutate records one traced mutation and splits it with direct
// calls: the same mutation applied again in-process (which keeps the
// churn answer-neutral: the copy count goes 1 → 3 → 1), and a journal
// append with fsync of the same edges on a side journal next to the
// Store's data dirs.
//
//	op.mutate                 the TCP round trip
//	└─ mutate.apply           Store.ApplyBatch
//	   └─ persist.wal_append  Journal.Append with sync
func (s *server) traceMutate(tr *tracer, p *phaseStats, side *persist.Journal, seq uint64,
	adds, dels []fastbcc.Edge, jadds, jdels []persist.JEdge, t0, t1 time.Time) {
	op := tr.newOp()
	root := tr.add(op, -1, "op.mutate", t0, t1)
	t2 := time.Now()
	mr, err := s.store.ApplyBatch(context.Background(), "g", adds, dels)
	t3 := time.Now()
	if err != nil {
		p.writer.fail("direct mutation: %v", err)
		return
	}
	p.count(mr)
	ap := tr.add(op, root, "mutate.apply", t2, t3)
	if _, err := side.Append(seq, jadds, jdels, true); err != nil {
		p.writer.fail("side journal append: %v", err)
		return
	}
	tr.add(op, ap, "persist.wal_append", t3, time.Now())
}

// tracedRebuild runs a plain Store.Rebuild of the served graph, whose
// build time, set against a flush's, prices the flush's materialization.
func (s *server) tracedRebuild(p *phaseStats, w want) {
	snap, err := s.store.Rebuild(context.Background(), "g", nil)
	if err != nil {
		p.writer.fail("rebuild: %v", err)
		return
	}
	defer snap.Release()
	p.rebuilds[snap.Version] = true
	p.writer.attempted++
	if err := w.check(snap); err != nil {
		p.writer.wrongAnswer("rebuild: %v", err)
	}
	if bt, ok := buildTrace(s.store, snap.Version); ok {
		p.rebuildMs = append(p.rebuildMs, ms(bt.Duration))
	}
}

// serveLayers adds the per-layer metrics of the traced serve phase tph;
// saves and recoverMs time the persistence calls made after it, and d is
// the host record of the untraced serve phase.
func serveLayers(r *result, tr *tracer, tph *phaseStats, saves []float64, recoverMs float64, d hostDelta) {
	bs := tr.breakdown("op.batch")
	ss := tr.breakdown("op.scalar")
	mst := tr.breakdown("op.mutate")
	checkNote(r, "op.batch", bs, "op.batch", "bccdhttp.batch", "wire.decode", "store.pin", "querybatch.exec", "wire.encode")
	checkNote(r, "op.scalar", ss, "op.scalar", "bccdhttp.scalar")
	checkNote(r, "op.mutate", mst, "op.mutate", "mutate.apply", "persist.wal_append")
	toUs := func(v float64) float64 { return v * 1e3 }
	L := r.layer
	L["wire.decode_us"] = metric{toUs(bs.med("wire.decode")), "us"}
	L["wire.encode_us"] = metric{toUs(bs.med("wire.encode")), "us"}
	L["store.pin_us"] = metric{toUs(bs.med("store.pin")), "us"}
	L["querybatch.exec_us"] = metric{toUs(bs.med("querybatch.exec")), "us"}
	L["bccdhttp.batch_us"] = metric{toUs(bs.medDur("bccdhttp.batch")), "us"}
	L["bccdhttp.scalar_us"] = metric{toUs(ss.medDur("bccdhttp.scalar")), "us"}
	L["net.loopback_us"] = metric{toUs(bs.med("op.batch")), "us"}
	L["epoch.retired_max"] = metric{float64(tph.retiredMax), "count"}
	L["store.live_snapshots_max"] = metric{float64(tph.liveMax), "count"}
	L["mutate.apply_us"] = metric{toUs(mst.medDur("mutate.apply")), "us"}
	L["persist.wal_append_us"] = metric{toUs(mst.med("persist.wal_append")), "us"}
	L["mutate.flush_ms"] = metric{median(tph.flushMs()), "ms"}
	L["mutate.materialize_ms"] = metric{median(tph.flushMs()) - median(tph.rebuildMs), "ms"}
	L["mutate.flushes"] = metric{float64(len(tph.flushes)), "count"}
	L["mutate.deltas_per_flush"] = metric{float64(tph.queued) / float64(len(tph.flushes)), "count"}
	L["persist.snapshot_save_ms"] = metric{median(saves), "ms"}
	L["persist.recover_ms"] = metric{recoverMs, "ms"}
	L["runtime.sched_latency_p99_us"] = metric{d.SchedP99us, "us"}
	L["runtime.gc_pause_p99_us"] = metric{d.GCPauseP99us, "us"}
	L["runtime.gc_cpu_frac"] = metric{d.GCCPUFrac, "ratio"}
}
