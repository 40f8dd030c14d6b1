package fastbcc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/bctree"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Incremental edge mutations.
//
// The paper's pipeline is construction-only: it computes a decomposition
// from scratch and nothing in it updates one. Serving mutable graphs on
// top of that would mean a full ~50-90ms rebuild per edge change. This
// file closes that gap with a classifier (Westbrook & Tarjan's analysis
// of incremental biconnectivity) that routes every insertion to the
// cheapest update that stays exactly correct:
//
//   - fast: the endpoints are already biconnected AND two-edge-connected
//     (or the edge is a self-loop). The new edge changes no query answer
//     the current Index gives, so ApplyBatch publishes a new snapshot
//     version that shares the Result/Index and carries the edge in the
//     snapshot's overlay — O(1), no build, no graph materialization.
//   - collapse: the endpoints are connected and their block-cut tree
//     path crosses at least one cut vertex. Adding the edge merges
//     exactly the blocks on that path into one (Westbrook-Tarjan); the
//     update is a bounded parallel relabel pass (core.MergeBlockPath)
//     plus an index rebuild over the merged decomposition — no pipeline
//     run, no CSR rebuild.
//   - rebuild: everything else — deletions, component-merging
//     insertions, parallel edges over a bridge (the blocks survive but
//     the bridge dies, changing 2ECC answers), and any insertion the
//     fault injection or a defensive check demotes. These queue in the
//     entry's delta buffer and are drained by ONE coalesced asynchronous
//     rebuild behind the usual epoch swap: a burst of N unclassifiable
//     mutations costs O(1) rebuilds, and queries keep serving the
//     last-good snapshot with the staleness surfaced in Store.Status.
//
// Lock order: the entry's build semaphore (sem) is the outer lock, the
// entry's mutation mutex (mutMu) is a leaf — it may be taken while
// holding sem, but never the reverse. Ordering guarantee: once any delta
// is pending (or a flush is running), every new mutation queues behind
// it, so the materialized edge sequence replays arrival order.

// edgeDelta is one queued mutation: an insertion (add) or a deletion of
// one occurrence of e. Edges are stored canonicalized (U <= W). seq is
// the journal sequence number of the record that carries this delta (0
// with durability off); when a flush lands, the entry's appliedSeq
// advances to the last flushed delta's seq and the journal prefix
// through it becomes truncatable (see durable.go).
type edgeDelta struct {
	add bool
	e   Edge
	seq uint64
}

// MutationResult reports how ApplyBatch disposed of one batch.
type MutationResult struct {
	// Version is the serving snapshot version after the call's
	// synchronous work (fast/collapse publishes bump it; queued
	// mutations do not until their coalesced flush lands).
	Version int64 `json:"version"`
	// Fast counts insertions applied by the intra-block overlay path,
	// Collapsed those applied by merging the BC-tree path, Queued the
	// mutations deferred to the coalesced delta rebuild.
	Fast      int `json:"fast"`
	Collapsed int `json:"collapsed"`
	Queued    int `json:"queued"`
	// Pending and DeltaAge describe the entry's whole delta buffer after
	// this call (this batch's queued mutations included): how many
	// mutations are accepted but not yet applied, and the age of the
	// oldest one.
	Pending  int           `json:"pending"`
	DeltaAge time.Duration `json:"delta_age"`
}

// mutationClass is the classifier's verdict for one insertion.
type mutationClass uint8

const (
	classRebuild mutationClass = iota
	classFast
	classCollapse
)

// classifyAdd routes the insertion {u, w} against idx, the serving
// index. Each test is an O(1) Index query.
func classifyAdd(idx *Index, e Edge) mutationClass {
	u, w := e.U, e.W
	if u == w {
		// A self-loop changes no connectivity, biconnectivity, or
		// 2-edge-connectivity answer.
		return classFast
	}
	if !idx.Connected(u, w) {
		// Components merge: the spanning forest itself changes shape.
		return classRebuild
	}
	if idx.Biconnected(u, w) {
		if idx.TwoEdgeConnected(u, w) {
			return classFast
		}
		// u and w share a block but a bridge separates them: that block
		// is the bridge's 2-vertex block, and the parallel edge keeps
		// the blocks intact while killing the bridge — 2ECC and bridge
		// answers change, so only a rebuild is exact.
		return classRebuild
	}
	// Connected, not biconnected: the BC-tree path between them crosses
	// at least one cut vertex, and the edge merges the path's blocks.
	return classCollapse
}

// canonEdge returns e with U <= W, the form deltas, overlays, and
// materialization all agree on.
func canonEdge(e Edge) Edge {
	if e.U > e.W {
		e.U, e.W = e.W, e.U
	}
	return e
}

// validateEdges rejects endpoints outside [0, n). Mutations never grow
// the vertex set — load a new graph for that.
func validateEdges(n int, adds, dels []Edge) error {
	for _, es := range [2][]Edge{adds, dels} {
		for _, e := range es {
			if e.U < 0 || int(e.U) >= n || e.W < 0 || int(e.W) >= n {
				return fmt.Errorf("fastbcc: mutation edge {%d,%d} out of range [0,%d)", e.U, e.W, n)
			}
		}
	}
	return nil
}

// ApplyBatch applies the insertions adds and deletions dels to name, in
// order (all adds, then all dels). Each insertion is classified against
// the serving snapshot's Index in O(1) and applied by the cheapest exact
// update — see the file comment for the three classes. Classified
// insertions publish one new snapshot version synchronously (shared
// Result/Index for the fast class, a merged decomposition for collapse);
// deletions and unclassifiable insertions return immediately as Queued
// and are drained by one coalesced asynchronous rebuild, during which
// queries keep serving the last-good snapshot (staleness is visible in
// the result, Store.Status, and Store.Stats).
//
// Once any delta is pending for the entry, every subsequent mutation
// queues behind it so the rebuild replays arrival order. Queued deltas
// survive a failed flush (they re-queue) and die only when the graph
// itself is replaced by Load. ctx bounds only the synchronous work; the
// coalesced flush runs on the background with the Store's BuildTimeout.
func (s *Store) ApplyBatch(ctx context.Context, name string, adds, dels []Edge) (MutationResult, error) {
	en, err := s.lookup(name)
	if err != nil {
		return MutationResult{}, err
	}
	if len(adds) == 0 && len(dels) == 0 {
		cur := en.cur.Load()
		if cur == nil {
			return MutationResult{}, notLoadedErr(name)
		}
		var r MutationResult
		r.Version = cur.Version
		r.Pending, r.DeltaAge = en.pendingDeltas()
		return r, nil
	}

	s.metrics.ensureGraphGauges(s, name)

	// With deltas already pending (or a flush in flight) everything
	// queues — no build lock needed, the mutation returns in O(batch).
	en.mutMu.Lock()
	if en.flushing || len(en.deltaQ) > 0 {
		res, err := s.enqueueLocked(en, name, adds, dels)
		en.mutMu.Unlock()
		return res, err
	}
	en.mutMu.Unlock()

	// Nothing pending: classify under the entry's build lock so the
	// snapshot we classify against cannot be swapped mid-batch.
	if err := en.lockCtx(ctx); err != nil {
		return MutationResult{}, err
	}
	defer en.unlock()
	if en.removed {
		return MutationResult{}, notLoadedErr(name)
	}
	// Re-check under the lock: a delta may have arrived while we waited.
	en.mutMu.Lock()
	pending := en.flushing || len(en.deltaQ) > 0
	if pending {
		res, err := s.enqueueLocked(en, name, adds, dels)
		en.mutMu.Unlock()
		return res, err
	}
	en.mutMu.Unlock()
	return s.applyClassified(en, name, adds, dels)
}

// enqueueLocked queues the whole batch as rebuild-class deltas and kicks
// the coalesced flusher. Caller holds en.mutMu (and possibly en.sem —
// mutMu is a leaf, so both call sites are legal).
func (s *Store) enqueueLocked(en *storeEntry, name string, adds, dels []Edge) (MutationResult, error) {
	cur := en.cur.Load()
	if cur == nil {
		return MutationResult{}, notLoadedErr(name)
	}
	if err := validateEdges(cur.Graph.NumVertices(), adds, dels); err != nil {
		return MutationResult{}, err
	}
	// Journal before acknowledging: the record is what makes this batch
	// durable (a failed append degrades, it does not fail the ack).
	seq := s.journalAppend(en, name, adds, dels)
	q := make([]edgeDelta, 0, len(adds)+len(dels))
	for _, e := range adds {
		q = append(q, edgeDelta{add: true, e: canonEdge(e), seq: seq})
	}
	for _, e := range dels {
		q = append(q, edgeDelta{e: canonEdge(e), seq: seq})
	}
	s.queueDeltasLocked(en, name, q)
	res := MutationResult{Version: cur.Version, Queued: len(q)}
	res.Pending = len(en.deltaQ) + en.inFlightDeltas
	if !en.deltaSince.IsZero() {
		res.DeltaAge = time.Since(en.deltaSince)
	}
	return res, nil
}

// queueDeltasLocked appends q to the entry's delta buffer and ensures a
// flusher is scheduled. Caller holds en.mutMu.
func (s *Store) queueDeltasLocked(en *storeEntry, name string, q []edgeDelta) {
	if len(q) == 0 {
		return
	}
	if en.deltaSince.IsZero() {
		en.deltaSince = time.Now()
	}
	en.deltaQ = append(en.deltaQ, q...)
	s.metrics.mutRebuild.Add(int64(len(q)))
	if !en.flushing {
		en.flushing = true
		go s.flushLoop(en, name)
	}
}

// applyClassified runs the classifier over the batch and publishes at
// most one new snapshot for the fast/collapse insertions; the rest
// queues. Caller holds en.sem, no deltas are pending, and en.removed is
// false.
func (s *Store) applyClassified(en *storeEntry, name string, adds, dels []Edge) (MutationResult, error) {
	cur := en.cur.Load()
	if cur == nil {
		return MutationResult{}, notLoadedErr(name)
	}
	if err := validateEdges(cur.Graph.NumVertices(), adds, dels); err != nil {
		return MutationResult{}, err
	}

	t0 := time.Now()
	work, idx := cur.Result, cur.Index
	var queued []edgeDelta
	var applied []Edge
	var queuedAdds, queuedDels []Edge
	fast, collapsed := 0, 0
	for _, e := range adds {
		cls := s.classifyAndMerge(cur, &work, &idx, e)
		switch cls {
		case classFast:
			fast++
			applied = append(applied, canonEdge(e))
		case classCollapse:
			collapsed++
			applied = append(applied, canonEdge(e))
		default:
			queued = append(queued, edgeDelta{add: true, e: canonEdge(e)})
			queuedAdds = append(queuedAdds, canonEdge(e))
		}
	}
	for _, e := range dels {
		queued = append(queued, edgeDelta{e: canonEdge(e)})
		queuedDels = append(queuedDels, canonEdge(e))
	}

	// Journal before acknowledging, as (up to) two records partitioning
	// the batch: the applied part — reflected in the snapshot published
	// below, so its seq becomes the snapshot's truncation point — and the
	// queued residual, whose later seq keeps it in the journal until its
	// own flush is durably persisted. The split is what makes a crash
	// anywhere here safe: replay queues each record's edges exactly once.
	var appliedSeq, queuedSeq uint64
	if len(applied) > 0 {
		appliedSeq = s.journalAppend(en, name, applied, nil)
	}
	if len(queued) > 0 {
		queuedSeq = s.journalAppend(en, name, queuedAdds, queuedDels)
		for i := range queued {
			queued[i].seq = queuedSeq
		}
	}

	if len(applied) > 0 {
		overlay := make([]Edge, 0, len(cur.overlay)+len(applied))
		overlay = append(overlay, cur.overlay...)
		overlay = append(overlay, applied...)
		snap := &Snapshot{
			Name:      name,
			Version:   en.version.Add(1),
			Algorithm: cur.Algorithm,
			Graph:     cur.Graph,
			Result:    work,
			Index:     idx,
			BuiltAt:   time.Now(),
			BuildTime: time.Since(t0),
			overlay:   overlay,
		}
		// This snapshot fully reflects the applied record (we hold sem, so
		// appliedSeq > the previous watermark by construction).
		en.appliedSeq = appliedSeq
		s.publish(en, snap, 1) // the store's reference only — nothing returned
		cur = snap
	}
	if fast > 0 {
		s.metrics.mutFast.Add(int64(fast))
	}
	if collapsed > 0 {
		s.metrics.mutCollapse.Add(int64(collapsed))
	}

	res := MutationResult{Version: cur.Version, Fast: fast, Collapsed: collapsed, Queued: len(queued)}
	en.mutMu.Lock()
	s.queueDeltasLocked(en, name, queued)
	res.Pending = len(en.deltaQ) + en.inFlightDeltas
	if !en.deltaSince.IsZero() {
		res.DeltaAge = time.Since(en.deltaSince)
	}
	en.mutMu.Unlock()
	return res, nil
}

// classifyAndMerge classifies one insertion against *idx and, for the
// collapse class, swaps *work/*idx for the merged decomposition and its
// fresh index. Any panic (the classify faultpoint, or a defensive
// failure inside the merge) demotes the insertion to the rebuild class —
// mutations degrade, they are never lost.
func (s *Store) classifyAndMerge(cur *Snapshot, work **Result, idx **Index, e Edge) (cls mutationClass) {
	cls = classRebuild
	defer func() {
		if recover() != nil {
			cls = classRebuild
		}
	}()
	if err := faultpoint.Check(faultpoint.MutateClassify); err != nil {
		return classRebuild
	}
	cls = classifyAdd(*idx, e)
	if cls != classCollapse {
		return cls
	}
	labels := (*idx).PathBlockLabels(e.U, e.W)
	merged := core.MergeBlockPath(s.runner.exec, *work, labels)
	if merged == nil {
		return classRebuild
	}
	*idx = bctree.NewIn(s.runner.exec, cur.Graph, merged)
	*work = merged
	return classCollapse
}

// errDeltasDropped marks a flush whose stolen batch was intentionally
// discarded — the entry was removed, never loaded, or its graph was
// replaced (generation mismatch) — so the deltas must NOT re-queue.
var errDeltasDropped = errors.New("fastbcc: pending deltas dropped")

// flushLoop is the per-kick coalescing drain: it repeatedly waits out
// the coalesce window, steals the whole delta queue and runs one rebuild
// per stolen batch, so any burst that arrives during a window or during
// a rebuild lands in a single later rebuild. Because every rebuild waits
// out the window first, flush builds never run back to back: on one CPU
// the serving side gets at least one window between two of them. It
// exits when the queue drains, or parks the deltas back on a failure
// (the next mutation re-kicks it).
func (s *Store) flushLoop(en *storeEntry, name string) {
	for {
		if d := s.mutationCoalesce; d > 0 {
			// Drop a kick left over from a FlushDeltas that has returned:
			// it would skip this window. A live FlushDeltas re-kicks every
			// 1ms.
			select {
			case <-en.flushKick:
			default:
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-en.flushKick:
				t.Stop()
			}
		}
		en.mutMu.Lock()
		q := en.deltaQ
		en.deltaQ = nil
		if len(q) == 0 {
			en.flushing = false
			en.deltaSince = time.Time{}
			en.mutMu.Unlock()
			return
		}
		en.inFlightDeltas = len(q)
		gen := en.graphGen.Load()
		en.mutMu.Unlock()

		err := s.flushOnce(en, name, q, gen)

		en.mutMu.Lock()
		en.inFlightDeltas = 0
		if err != nil && !errors.Is(err, errDeltasDropped) {
			// Re-queue at the front: arrival order is preserved relative
			// to deltas that arrived during the failed flush. The flusher
			// parks; the next mutation (or FlushDeltas) re-kicks it, so a
			// persistent failure does not spin.
			en.deltaQ = append(q, en.deltaQ...)
			if en.deltaSince.IsZero() {
				en.deltaSince = time.Now()
			}
			en.flushing = false
			en.mutMu.Unlock()
			return
		}
		if len(en.deltaQ) == 0 {
			// Drained: stop now, not after another window, so the next
			// mutation takes the synchronous path at once.
			en.flushing = false
			en.deltaSince = time.Time{}
			en.mutMu.Unlock()
			return
		}
		en.mutMu.Unlock()
	}
}

// flushOnce materializes the current graph plus overlay plus the stolen
// deltas q and builds + publishes one fresh snapshot (overlay folded,
// empty again). Returns errDeltasDropped when the batch is obsolete; any
// other error means the caller must re-queue q.
func (s *Store) flushOnce(en *storeEntry, name string, q []edgeDelta, gen uint64) error {
	ctx := context.Background()
	if s.buildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.buildTimeout)
		defer cancel()
	}
	if err := en.lockCtx(ctx); err != nil {
		return err
	}
	defer en.unlock()
	if en.removed || en.graphGen.Load() != gen {
		return errDeltasDropped
	}
	cur := en.cur.Load()
	if cur == nil {
		return errDeltasDropped
	}
	snap, err := s.buildLocked(ctx, en, name, cur, nil, q, Options{})
	if err != nil {
		return err
	}
	// The flush materialized every stolen delta: the watermark advances
	// to the batch's last record (deltas arrive in seq order), and once
	// this snapshot is durably persisted the journal prefix through it
	// truncates away.
	if last := q[len(q)-1].seq; last > en.appliedSeq {
		en.appliedSeq = last
	}
	// One unit per second: _sum renders as the exact delta count.
	s.metrics.mutFlushSize.Observe(time.Duration(len(q)) * time.Second)
	en.flushes.Add(1)
	s.publish(en, snap, 1)
	s.kickPersist(en, name)
	return nil
}

// FlushDeltas synchronously drains name's pending mutation deltas — the
// coalesced rebuild the asynchronous flusher would eventually run,
// without waiting out the coalesce window. It returns once the entry is
// quiescent (nothing pending and no flusher running — nil), a flush
// fails (the error; the deltas re-queue), or ctx is done. Tests and
// operational drains use it; the serving path never needs to.
func (s *Store) FlushDeltas(ctx context.Context, name string) error {
	en, err := s.lookup(name)
	if err != nil {
		return err
	}
	for {
		en.mutMu.Lock()
		if len(en.deltaQ) == 0 && en.inFlightDeltas == 0 && !en.flushing {
			// Fully quiescent: nothing pending AND no flusher goroutine
			// still winding down — after this return, a classifiable
			// mutation takes the synchronous path again.
			en.mutMu.Unlock()
			return nil
		}
		if en.flushing {
			// An async flusher owns the queue; wake it if it is sleeping
			// out its coalesce window and wait for it to drain.
			en.mutMu.Unlock()
			select {
			case en.flushKick <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
			continue
		}
		// Parked deltas (a previous flush failed): drain them here.
		q := en.deltaQ
		en.deltaQ = nil
		en.inFlightDeltas = len(q)
		gen := en.graphGen.Load()
		en.flushing = true
		en.mutMu.Unlock()

		ferr := s.flushOnce(en, name, q, gen)

		en.mutMu.Lock()
		en.inFlightDeltas = 0
		en.flushing = false
		if ferr != nil && !errors.Is(ferr, errDeltasDropped) {
			en.deltaQ = append(q, en.deltaQ...)
			if en.deltaSince.IsZero() {
				en.deltaSince = time.Now()
			}
			en.mutMu.Unlock()
			return ferr
		}
		if len(en.deltaQ) == 0 {
			en.deltaSince = time.Time{}
		}
		en.mutMu.Unlock()
		if errors.Is(ferr, errDeltasDropped) {
			return nil
		}
	}
}

// materializeGraph builds a fresh CSR for base plus the overlay edges
// plus the ordered deltas. Insertions append one edge occurrence;
// deletions remove one occurrence, saturating to a no-op when none
// remains — order within the delta list matters for add/delete sequences
// over the same edge, which is why the queue replays arrival order.
//
// Only the touched edges are counted: each one's operations are grouped
// in arrival order (the overlay first), replayed from its base
// multiplicity, and the net change is handed to graph.PatchIn, which
// copies every untouched adjacency list instead of rebuilding the CSR.
func materializeGraph(e *parallel.Exec, base *Graph, overlay []Edge, deltas []edgeDelta) (*Graph, error) {
	ops := make([]edgeDelta, 0, len(overlay)+len(deltas))
	for _, ed := range overlay {
		ops = append(ops, edgeDelta{add: true, e: canonEdge(ed)})
	}
	for _, d := range deltas {
		ops = append(ops, edgeDelta{add: d.add, e: canonEdge(d.e)})
	}
	slices.SortStableFunc(ops, func(a, b edgeDelta) int {
		if a.e.U != b.e.U {
			return cmp.Compare(a.e.U, b.e.U)
		}
		return cmp.Compare(a.e.W, b.e.W)
	})
	var adds, dels []Edge
	for i := 0; i < len(ops); {
		ed := ops[i].e
		have := base.Multiplicity(ed.U, ed.W)
		c := have
		for ; i < len(ops) && ops[i].e == ed; i++ {
			if ops[i].add {
				c++
			} else if c > 0 {
				c--
			}
		}
		for ; c > have; c-- {
			adds = append(adds, ed)
		}
		for ; c < have; c++ {
			dels = append(dels, ed)
		}
	}
	return graph.PatchIn(e, base, adds, dels)
}
