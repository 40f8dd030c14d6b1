package fastbcc

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/bctree"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
)

// Durable serving.
//
// With StoreConfig.DataDir set, the Store persists each graph under
// DataDir/<graph-dir>/ as two files:
//
//   - snapshot.fbcc — the serving snapshot's flat arrays (CSR graph,
//     decomposition, query index, overlay) in the internal/persist
//     container: checksummed sections, written temp-fsync-rename by a
//     per-entry background persister after every full build (Load,
//     Rebuild, delta flush). A restart memory-maps it back and serves
//     without rebuilding anything.
//   - wal — the write-ahead journal for mutations. ApplyBatch appends a
//     CRC-framed record and fsyncs BEFORE acknowledging, so every acked
//     mutation survives a crash; after a snapshot that reflects a record
//     is durably published, the record is truncated away.
//
// The sequence protocol ties the two together. Every journaled record
// gets the entry's next walSeq; appliedSeq (guarded by the entry's build
// lock) is the highest seq such that every record <= it is fully
// reflected in the serving snapshot, and each snapshot captures it as
// mutSeq. Recovery maps the snapshot, then replays the journal records
// with Seq > mutSeq into the ordinary delta queue — the already-serving
// snapshot is stale but correct, and one coalesced rebuild catches up. A
// batch that classifies partially (some edges applied to the overlay,
// some queued) journals as TWO records — the applied part, then the
// residual — so the snapshot's truncation point never strands the queued
// half and replay never re-applies the applied half.
//
// Durability degrades, it never fails serving: a failed snapshot write or
// journal append is logged into the entry's persist-error state (Status
// reports DurabilityDegraded, metrics count it), and queries and mutation
// acknowledgments proceed exactly as with DataDir unset.

const (
	snapshotFile = "snapshot.fbcc"
	journalFile  = "wal"
)

// Snapshot section IDs (persist.Section.ID). Frozen: renumbering breaks
// every snapshot on disk.
const (
	secGraphOffsets uint32 = 1
	secGraphAdj     uint32 = 2
	secLabel        uint32 = 3
	secHead         uint32 = 4
	secParent       uint32 = 5
	secLabelCount   uint32 = 6
	secArtPoints    uint32 = 7
	secBCTCutNode   uint32 = 8
	secBCTBlockOf   uint32 = 9
	secBCTOffsets   uint32 = 10
	secBCTAdj       uint32 = 11
	secNodeOf       uint32 = 12
	secBCPar        uint32 = 13
	secBCFirst      uint32 = 14
	secBCLast       uint32 = 15
	secBCDepth      uint32 = 16
	secBCTourDepth  uint32 = 17
	secECC          uint32 = 18
	secBRComp       uint32 = 19
	secBRPar        uint32 = 20
	secBRFirst      uint32 = 21
	secBRDepth      uint32 = 22
	secBRTourDepth  uint32 = 23
	secBREdgeU      uint32 = 24
	secBREdgeW      uint32 = 25
	secOverlay      uint32 = 26 // flattened (u, w) pairs
)

// snapshotMeta is the JSON meta blob of a snapshot file — the scalars the
// sections cannot carry, plus the shape facts restore validates the
// sections against.
type snapshotMeta struct {
	Format     int    `json:"format"`
	Name       string `json:"name"`
	Algorithm  string `json:"algorithm"`
	Version    int64  `json:"version"`
	BuiltAt    int64  `json:"built_at"` // UnixNano
	MutSeq     uint64 `json:"mut_seq"`
	N          int32  `json:"n"`
	NumLabels  int    `json:"num_labels"`
	NumBCC     int    `json:"num_bcc"`
	NumBlocks  int    `json:"num_blocks"`
	NumBridges int    `json:"num_bridges"`
}

// graphDir maps a catalog name to its directory under DataDir: names
// made of [A-Za-z0-9._-] (not starting with a dot) keep themselves,
// prefixed "g-"; anything else hex-encodes as "x-<hex>". The meta blob
// carries the authoritative name either way.
func (s *Store) graphDir(name string) string {
	safe := name != "" && name[0] != '.' && len(name) <= 128
	if safe {
		for i := 0; i < len(name); i++ {
			c := name[i]
			if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
				c == '.' || c == '_' || c == '-') {
				safe = false
				break
			}
		}
	}
	if safe {
		return filepath.Join(s.dataDir, "g-"+name)
	}
	return filepath.Join(s.dataDir, "x-"+hex.EncodeToString([]byte(name)))
}

// ---------------------------------------------------------------------
// Snapshot encode / restore
// ---------------------------------------------------------------------

// encodeSnapshot flattens snap into the persist container's meta +
// sections. The section slices alias the snapshot's arrays (except the
// tiny overlay flattening), so the caller must hold its retain across
// the write.
func encodeSnapshot(snap *Snapshot) ([]byte, []persist.Section, error) {
	g, r, x := snap.Graph, snap.Result, snap.Index
	if g == nil || r == nil || x == nil {
		return nil, nil, errors.New("fastbcc: snapshot has no payload to persist")
	}
	t := r.BlockCutTree()
	p := x.Parts()
	meta := snapshotMeta{
		Format:     1,
		Name:       snap.Name,
		Algorithm:  snap.Algorithm,
		Version:    snap.Version,
		BuiltAt:    snap.BuiltAt.UnixNano(),
		MutSeq:     snap.mutSeq,
		N:          g.N,
		NumLabels:  r.NumLabels,
		NumBCC:     r.NumBCC,
		NumBlocks:  t.NumBlocks,
		NumBridges: p.NumBridges,
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, nil, err
	}
	overlay := make([]int32, 0, 2*len(snap.overlay))
	for _, e := range snap.overlay {
		overlay = append(overlay, e.U, e.W)
	}
	secs := []persist.Section{
		{ID: secGraphOffsets, Data: g.Offsets},
		{ID: secGraphAdj, Data: g.Adj},
		{ID: secLabel, Data: r.Label},
		{ID: secHead, Data: r.Head},
		{ID: secParent, Data: r.Parent},
		{ID: secLabelCount, Data: r.LabelSizes()},
		{ID: secArtPoints, Data: r.ArticulationPoints()},
		{ID: secBCTCutNode, Data: t.CutNode},
		{ID: secBCTBlockOf, Data: t.BlockOf},
		{ID: secBCTOffsets, Data: t.Offsets},
		{ID: secBCTAdj, Data: t.Adj},
		{ID: secNodeOf, Data: p.NodeOf},
		{ID: secBCPar, Data: p.BCPar},
		{ID: secBCFirst, Data: p.BCFirst},
		{ID: secBCLast, Data: p.BCLast},
		{ID: secBCDepth, Data: p.BCDepth},
		{ID: secBCTourDepth, Data: p.BCTourDepth},
		{ID: secECC, Data: p.ECC},
		{ID: secBRComp, Data: p.BRComp},
		{ID: secBRPar, Data: p.BRPar},
		{ID: secBRFirst, Data: p.BRFirst},
		{ID: secBRDepth, Data: p.BRDepth},
		{ID: secBRTourDepth, Data: p.BRTourDepth},
		{ID: secBREdgeU, Data: p.BREdgeU},
		{ID: secBREdgeW, Data: p.BREdgeW},
		{ID: secOverlay, Data: overlay},
	}
	return mb, secs, nil
}

// restoreSnapshot reassembles a serving snapshot from a validated
// mapping. The returned snapshot's arrays alias m on little-endian
// hosts; the caller transfers its mapping reference into snap.mapping.
func restoreSnapshot(m *persist.Mapping, meta *snapshotMeta) (*Snapshot, error) {
	sec := func(id uint32, wantLen int, what string) ([]int32, error) {
		a, ok := m.Section(id)
		if !ok {
			return nil, fmt.Errorf("fastbcc: snapshot restore: section %d (%s) missing", id, what)
		}
		if wantLen >= 0 && len(a) != wantLen {
			return nil, fmt.Errorf("fastbcc: snapshot restore: %s has %d entries, meta implies %d", what, len(a), wantLen)
		}
		return a, nil
	}
	n := int(meta.N)
	if n < 0 || meta.NumLabels < 0 || meta.NumBlocks < 0 || meta.NumBridges < 0 {
		return nil, errors.New("fastbcc: snapshot restore: negative shape in meta")
	}

	offsets, err := sec(secGraphOffsets, n+1, "graph offsets")
	if err != nil {
		return nil, err
	}
	adj, err := sec(secGraphAdj, -1, "graph adjacency")
	if err != nil {
		return nil, err
	}
	// The CSR is the one structure queries index by raw user input, so it
	// gets the full O(n+m) validation: monotone offsets closing exactly on
	// the adjacency, every target in range.
	if n > 0 && offsets[0] != 0 {
		return nil, errors.New("fastbcc: snapshot restore: graph offsets do not start at 0")
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, errors.New("fastbcc: snapshot restore: graph offsets not monotone")
		}
	}
	if n > 0 && int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("fastbcc: snapshot restore: offsets close at %d, adjacency has %d arcs", offsets[n], len(adj))
	}
	for _, w := range adj {
		if w < 0 || int(w) >= n {
			return nil, fmt.Errorf("fastbcc: snapshot restore: adjacency target %d out of range [0,%d)", w, n)
		}
	}

	label, err := sec(secLabel, n, "labels")
	if err != nil {
		return nil, err
	}
	head, err := sec(secHead, meta.NumLabels, "heads")
	if err != nil {
		return nil, err
	}
	parent, err := sec(secParent, n, "parents")
	if err != nil {
		return nil, err
	}
	labelCount, err := sec(secLabelCount, meta.NumLabels, "label sizes")
	if err != nil {
		return nil, err
	}
	artPoints, err := sec(secArtPoints, -1, "articulation points")
	if err != nil {
		return nil, err
	}
	cutNode, err := sec(secBCTCutNode, n, "cut nodes")
	if err != nil {
		return nil, err
	}
	blockOf, err := sec(secBCTBlockOf, meta.NumLabels, "block map")
	if err != nil {
		return nil, err
	}
	numNodes := meta.NumBlocks + len(artPoints)
	bctOffsets, err := sec(secBCTOffsets, numNodes+1, "block-cut offsets")
	if err != nil {
		return nil, err
	}
	bctAdj, err := sec(secBCTAdj, -1, "block-cut adjacency")
	if err != nil {
		return nil, err
	}
	nodeOf, err := sec(secNodeOf, n, "node map")
	if err != nil {
		return nil, err
	}
	bcPar, err := sec(secBCPar, numNodes, "bc parents")
	if err != nil {
		return nil, err
	}
	bcFirst, err := sec(secBCFirst, numNodes, "bc tour firsts")
	if err != nil {
		return nil, err
	}
	bcLast, err := sec(secBCLast, numNodes, "bc tour lasts")
	if err != nil {
		return nil, err
	}
	bcDepth, err := sec(secBCDepth, numNodes, "bc depths")
	if err != nil {
		return nil, err
	}
	bcTour, err := sec(secBCTourDepth, -1, "bc tour depths")
	if err != nil {
		return nil, err
	}
	ecc, err := sec(secECC, n, "2ecc labels")
	if err != nil {
		return nil, err
	}
	brComp, err := sec(secBRComp, -1, "bridge components")
	if err != nil {
		return nil, err
	}
	numEcc := len(brComp)
	brPar, err := sec(secBRPar, numEcc, "bridge parents")
	if err != nil {
		return nil, err
	}
	brFirst, err := sec(secBRFirst, numEcc, "bridge tour firsts")
	if err != nil {
		return nil, err
	}
	brDepth, err := sec(secBRDepth, numEcc, "bridge depths")
	if err != nil {
		return nil, err
	}
	brTour, err := sec(secBRTourDepth, -1, "bridge tour depths")
	if err != nil {
		return nil, err
	}
	brEdgeU, err := sec(secBREdgeU, numEcc, "bridge edge u")
	if err != nil {
		return nil, err
	}
	brEdgeW, err := sec(secBREdgeW, numEcc, "bridge edge w")
	if err != nil {
		return nil, err
	}
	overlayFlat, err := sec(secOverlay, -1, "overlay")
	if err != nil {
		return nil, err
	}
	if len(overlayFlat)%2 != 0 {
		return nil, errors.New("fastbcc: snapshot restore: overlay has odd length")
	}

	// Range checks for every array a query indexes with: a value out of
	// range would turn the first query into a panic.
	inRange := func(a []int32, lo, hi int, what string) error {
		for _, v := range a {
			if int(v) < lo || int(v) >= hi {
				return fmt.Errorf("fastbcc: snapshot restore: %s value %d out of range [%d,%d)", what, v, lo, hi)
			}
		}
		return nil
	}
	for _, chk := range []error{
		inRange(label, 0, max(meta.NumLabels, 1), "label"),
		inRange(head, -1, n, "head"),
		inRange(parent, -1, n, "parent"),
		inRange(artPoints, 0, n, "articulation point"),
		inRange(cutNode, -1, numNodes, "cut node"),
		inRange(blockOf, -1, meta.NumBlocks, "block map"),
		inRange(nodeOf, -1, numNodes, "node map"),
		inRange(bcFirst, 0, max(len(bcTour), 1), "bc tour first"),
		inRange(bcLast, 0, max(len(bcTour), 1), "bc tour last"),
		inRange(ecc, -1, numEcc, "2ecc label"),
		inRange(brComp, 0, max(numEcc, 1), "bridge component"),
		inRange(brFirst, 0, max(len(brTour), 1), "bridge tour first"),
		validateCSR(bctOffsets, bctAdj, numNodes, "block-cut tree"),
	} {
		if chk != nil {
			return nil, chk
		}
	}

	bct := &core.BlockCutTree{
		NumBlocks: meta.NumBlocks,
		Cuts:      artPoints,
		CutNode:   cutNode,
		BlockOf:   blockOf,
		Offsets:   bctOffsets,
		Adj:       bctAdj,
	}
	res := core.RestoreResult(label, head, parent, labelCount, artPoints, meta.NumBCC, bct)
	idx := bctree.FromParts(res, bctree.Parts{
		NodeOf:      nodeOf,
		BCPar:       bcPar,
		BCFirst:     bcFirst,
		BCLast:      bcLast,
		BCDepth:     bcDepth,
		BCTourDepth: bcTour,
		ECC:         ecc,
		NumBridges:  meta.NumBridges,
		BRComp:      brComp,
		BRPar:       brPar,
		BRFirst:     brFirst,
		BRDepth:     brDepth,
		BRTourDepth: brTour,
		BREdgeU:     brEdgeU,
		BREdgeW:     brEdgeW,
	})
	var overlay []Edge
	if len(overlayFlat) > 0 {
		overlay = make([]Edge, len(overlayFlat)/2)
		for i := range overlay {
			overlay[i] = Edge{U: overlayFlat[2*i], W: overlayFlat[2*i+1]}
		}
	}
	return &Snapshot{
		Name:      meta.Name,
		Version:   meta.Version,
		Algorithm: meta.Algorithm,
		Graph:     &graph.Graph{N: meta.N, Offsets: offsets, Adj: adj},
		Result:    res,
		Index:     idx,
		BuiltAt:   time.Unix(0, meta.BuiltAt),
		overlay:   overlay,
		mutSeq:    meta.MutSeq,
	}, nil
}

// validateCSR checks a CSR (offsets, adj) over nodes vertices.
func validateCSR(offsets, adj []int32, nodes int, what string) error {
	if len(offsets) != nodes+1 {
		return fmt.Errorf("fastbcc: snapshot restore: %s offsets have %d entries, want %d", what, len(offsets), nodes+1)
	}
	if nodes == 0 {
		return nil
	}
	if offsets[0] != 0 || int(offsets[nodes]) != len(adj) {
		return fmt.Errorf("fastbcc: snapshot restore: %s offsets do not close on adjacency", what)
	}
	for v := 0; v < nodes; v++ {
		if offsets[v] > offsets[v+1] {
			return fmt.Errorf("fastbcc: snapshot restore: %s offsets not monotone", what)
		}
	}
	for _, w := range adj {
		if w < 0 || int(w) >= nodes {
			return fmt.Errorf("fastbcc: snapshot restore: %s adjacency target out of range", what)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Journal integration (the mutation ack path)
// ---------------------------------------------------------------------

// appendJEdges converts edges into dst (reused across calls).
func appendJEdges(dst []persist.JEdge, edges []Edge) []persist.JEdge {
	for _, e := range edges {
		dst = append(dst, persist.JEdge{U: e.U, W: e.W})
	}
	return dst
}

// journalAppend assigns the batch the entry's next WAL sequence number
// and appends one journal record, fsyncing before returning — the
// durability point every mutation acknowledgment rests on. With DataDir
// unset it returns 0 and touches nothing. A failed append DEGRADES
// (persist-error state, metrics) instead of failing the mutation: the
// acknowledgment proceeds, it just is not crash-durable, which Status
// reports as DurabilityDegraded.
func (s *Store) journalAppend(en *storeEntry, name string, adds, dels []Edge) uint64 {
	if s.dataDir == "" {
		return 0
	}
	en.jmu.Lock()
	defer en.jmu.Unlock()
	en.walSeq++
	seq := en.walSeq
	if en.journal == nil {
		// Load opens the journal; reaching here without one means that
		// open failed. Note it (once per batch) and keep serving.
		s.notePersistError(en, fmt.Errorf("fastbcc: graph %q has no journal (open failed earlier)", name))
		return seq
	}
	en.jAdds = appendJEdges(en.jAdds[:0], adds)
	en.jDels = appendJEdges(en.jDels[:0], dels)
	nb, err := en.journal.Append(seq, en.jAdds, en.jDels, !s.journalNoSync)
	if err != nil {
		s.notePersistError(en, err)
		s.metrics.walAppendErr.Inc()
		return seq
	}
	s.metrics.walAppendOK.Inc()
	s.metrics.walBytes.Add(int64(nb))
	return seq
}

// ensureJournalLocked opens (creating) the entry's journal. Caller holds
// en.jmu. Any records already on disk are discarded from replay (the
// caller Load path resets the file) but their sequence numbers are
// honored so walSeq stays monotone across restarts.
func (s *Store) ensureJournalLocked(en *storeEntry, name string) error {
	if en.journal != nil {
		return nil
	}
	dir := s.graphDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, _, err := persist.OpenJournal(filepath.Join(dir, journalFile))
	if err != nil {
		return err
	}
	en.journal = j
	if last := j.LastSeq(); last > en.walSeq {
		en.walSeq = last
	}
	return nil
}

// initDurableEntry wires a freshly Loaded entry's durability state: the
// journal is opened and reset (the graph was replaced wholesale, so any
// prior records describe a dead graph) and appliedSeq catches up to
// walSeq. Caller holds en.sem. Failures degrade.
func (s *Store) initDurableEntry(en *storeEntry, name string) {
	if s.dataDir == "" {
		return
	}
	en.jmu.Lock()
	defer en.jmu.Unlock()
	if err := s.ensureJournalLocked(en, name); err != nil {
		s.notePersistError(en, err)
		return
	}
	if err := en.journal.Reset(); err != nil {
		s.notePersistError(en, err)
		return
	}
	en.appliedSeq = en.walSeq
}

// ---------------------------------------------------------------------
// Background snapshot persister
// ---------------------------------------------------------------------

// notePersistError records a durability failure on the entry (Status
// surfaces it as DurabilityDegraded/LastPersistError) and store-wide.
func (s *Store) notePersistError(en *storeEntry, err error) {
	s.persistFails.Add(1)
	en.pmu.Lock()
	en.persistErr = err.Error()
	en.persistErrAt = time.Now()
	en.pmu.Unlock()
}

// persistState returns the entry's durability-degradation state.
func (en *storeEntry) persistState() (string, time.Time) {
	en.pmu.Lock()
	defer en.pmu.Unlock()
	return en.persistErr, en.persistErrAt
}

// kickPersist marks the entry dirty and ensures a background persister
// is running. Called after every full-build publish (Load, Rebuild,
// delta flush) — not after fast/collapse publishes, whose durability the
// journal already carries; persisting on every overlay bump would turn a
// mutation burst into a disk-write burst for nothing.
func (s *Store) kickPersist(en *storeEntry, name string) {
	if s.dataDir == "" {
		return
	}
	en.pmu.Lock()
	en.persistDirty = true
	start := !en.persistRunning && !en.persistStopped
	if start {
		en.persistRunning = true
	}
	en.pmu.Unlock()
	if start {
		go s.persistLoop(en, name)
	}
}

// persistLoop drains the dirty flag: each pass persists the entry's
// current snapshot, so any number of publishes during a write coalesce
// into one more write.
func (s *Store) persistLoop(en *storeEntry, name string) {
	for {
		en.pmu.Lock()
		if !en.persistDirty || en.persistStopped {
			en.persistRunning = false
			en.pmu.Unlock()
			return
		}
		en.persistDirty = false
		en.pmu.Unlock()
		s.persistEntry(en, name)
	}
}

// persistEntry writes the entry's current snapshot (persistCurrent under
// the per-entry writer lock) and records the outcome. The stopped
// re-check under pwMu pairs with closeDurable's barrier: after
// closeDurable returns, no snapshot write can start, so Remove's
// RemoveAll cannot race a persist that would resurrect the directory.
func (s *Store) persistEntry(en *storeEntry, name string) error {
	en.pwMu.Lock()
	defer en.pwMu.Unlock()
	en.pmu.Lock()
	stopped := en.persistStopped
	en.pmu.Unlock()
	if stopped {
		return nil
	}
	err := s.persistCurrent(en, name)
	if err != nil {
		s.notePersistError(en, err)
		s.metrics.persistSnapErr.Inc()
	}
	return err
}

// persistCurrent writes the entry's current snapshot to disk and, on
// success, truncates the journal through the snapshot's mutSeq and
// clears the entry's persist-error state. Returns nil when there is
// nothing to persist.
func (s *Store) persistCurrent(en *storeEntry, name string) error {
	cur := en.cur.Load()
	if cur == nil {
		return nil
	}
	if !cur.tryRetain() {
		return nil
	}
	defer cur.Release()
	meta, secs, err := encodeSnapshot(cur)
	if err != nil {
		return err
	}
	dir := s.graphDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nb, err := persist.WriteSnapshot(filepath.Join(dir, snapshotFile), meta, secs)
	if err != nil {
		return err
	}
	s.metrics.persistSnapOK.Inc()
	s.metrics.persistSnapBytes.Add(nb)
	en.pmu.Lock()
	en.persistErr = ""
	en.persistErrAt = time.Time{}
	en.pmu.Unlock()
	// Every record <= mutSeq is now reflected in a durable snapshot; the
	// journal only needs the tail.
	en.jmu.Lock()
	j := en.journal
	en.jmu.Unlock()
	if j != nil {
		if terr := j.TruncateThrough(cur.mutSeq); terr != nil {
			s.notePersistError(en, terr)
		} else {
			s.metrics.walTruncs.Inc()
		}
	}
	return nil
}

// Persist synchronously writes name's current snapshot to the Store's
// DataDir — the write the background persister would eventually do. For
// tests and operational flushes; with DataDir unset it is a no-op.
func (s *Store) Persist(name string) error {
	if s.dataDir == "" {
		return nil
	}
	en, err := s.lookup(name)
	if err != nil {
		return err
	}
	return s.persistEntry(en, name)
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

// RecoveredGraph describes one graph Recover brought back.
type RecoveredGraph struct {
	// Name and Version identify the restored snapshot.
	Name    string `json:"name"`
	Version int64  `json:"version"`
	// Vertices and Edges describe the restored graph (overlay included).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Replayed counts the journaled mutation records queued for replay —
	// the snapshot serves immediately and one coalesced rebuild catches
	// up in the background.
	Replayed int `json:"replayed"`
	// SnapshotBytes is the mapped snapshot file's size.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// RecoveryFailure describes one data directory Recover could not bring
// back (corrupt snapshot, unreadable file). The graph is simply absent
// from the catalog; the directory is left on disk for inspection.
type RecoveryFailure struct {
	Dir   string `json:"dir"`
	Error string `json:"error"`
}

// RecoveryReport summarizes a Recover pass.
type RecoveryReport struct {
	Graphs   []RecoveredGraph  `json:"graphs"`
	Failures []RecoveryFailure `json:"failures,omitempty"`
}

// Recover scans the Store's DataDir and restores every persisted graph:
// the last-good snapshot is memory-mapped and published (queries serve
// it immediately, no rebuild), the journal's records newer than the
// snapshot replay through the ordinary delta queue (one coalesced
// rebuild catches up in the background), and the journal's torn tail —
// if the process died mid-append — is truncated. Corrupt snapshots are
// reported in the result and skipped: recovery of one graph never blocks
// the rest, and a failed graph just stays unloaded.
//
// Call Recover once, before serving. Entries already serving a snapshot
// (Loaded while Recover ran, or a second Recover call) are skipped.
// With DataDir unset the report is empty.
func (s *Store) Recover(ctx context.Context) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	if s.dataDir == "" {
		return rep, nil
	}
	entries, err := os.ReadDir(s.dataDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return rep, nil
		}
		return nil, err
	}
	for _, de := range entries {
		if !de.IsDir() || !(strings.HasPrefix(de.Name(), "g-") || strings.HasPrefix(de.Name(), "x-")) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		dir := filepath.Join(s.dataDir, de.Name())
		rg, rerr := s.recoverDir(ctx, dir)
		if rerr != nil {
			rep.Failures = append(rep.Failures, RecoveryFailure{Dir: dir, Error: rerr.Error()})
			continue
		}
		if rg != nil {
			rep.Graphs = append(rep.Graphs, *rg)
		}
	}
	sort.Slice(rep.Graphs, func(i, j int) bool { return rep.Graphs[i].Name < rep.Graphs[j].Name })
	return rep, nil
}

// recoverDir restores one graph directory. A nil, nil return means the
// directory was skipped (no snapshot, or the graph is already serving).
func (s *Store) recoverDir(ctx context.Context, dir string) (*RecoveredGraph, error) {
	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(snapPath); errors.Is(err, os.ErrNotExist) {
		// A directory with a journal but no snapshot: the process died
		// after Load created the journal but before the first persist
		// finished. There is no base graph to replay onto — nothing to
		// recover (and nothing acked rested on it: acks rest on the
		// journal only for mutations, which require a loaded graph whose
		// snapshot persist would have had to complete for a restart to
		// matter... the records describe a graph that was never durable).
		return nil, nil
	}
	m, err := persist.OpenMapped(snapPath, s.verifyOnLoad)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			m.Release()
		}
	}()
	var meta snapshotMeta
	if err := json.Unmarshal(m.Meta(), &meta); err != nil {
		return nil, fmt.Errorf("fastbcc: snapshot meta: %w", err)
	}
	if meta.Format != 1 || meta.Name == "" {
		return nil, fmt.Errorf("fastbcc: snapshot meta: unsupported format %d or empty name", meta.Format)
	}
	snap, err := restoreSnapshot(m, &meta)
	if err != nil {
		return nil, err
	}

	en, err := s.entry(meta.Name)
	if err != nil {
		return nil, err
	}
	if err := en.lockCtx(ctx); err != nil {
		return nil, err
	}
	defer en.unlock()
	if en.removed || en.cur.Load() != nil {
		// Raced with Remove, or the graph was Loaded (or already
		// recovered) while we decoded: the live state wins.
		return nil, nil
	}
	snap.store = s
	snap.mapping = m // transfers the OpenMapped reference
	snap.refs.Store(1)
	en.version.Store(snap.Version)
	en.appliedSeq = snap.mutSeq
	s.live.Add(1)
	en.cur.Store(snap)
	ok = true
	s.metrics.recovered.Inc()
	s.metrics.ensureGraphGauges(s, meta.Name)

	// Journal: open (truncating any torn tail), then queue the records
	// the snapshot does not reflect through the ordinary delta machinery.
	replayed := 0
	wal := filepath.Join(dir, journalFile)
	en.jmu.Lock()
	j, recs, jerr := persist.OpenJournal(wal)
	if jerr != nil && errors.Is(jerr, persist.ErrJournalCorrupt) {
		// The journal file is not a journal at all. Quarantine it and
		// start fresh: the snapshot still serves, but any acked mutations
		// it held are lost — that is a durability degradation, reported.
		os.Rename(wal, wal+".corrupt")
		j, recs, _ = persist.OpenJournal(wal)
	}
	if j != nil {
		en.journal = j
		for _, rec := range recs {
			if rec.Seq <= meta.MutSeq {
				continue
			}
			q := make([]edgeDelta, 0, len(rec.Adds)+len(rec.Dels))
			for _, e := range rec.Adds {
				q = append(q, edgeDelta{add: true, e: canonEdge(Edge{U: e.U, W: e.W}), seq: rec.Seq})
			}
			for _, e := range rec.Dels {
				q = append(q, edgeDelta{e: canonEdge(Edge{U: e.U, W: e.W}), seq: rec.Seq})
			}
			en.mutMu.Lock()
			s.queueDeltasLocked(en, meta.Name, q)
			en.mutMu.Unlock()
			replayed++
		}
		if last := j.LastSeq(); last > en.walSeq {
			en.walSeq = last
		}
	}
	if en.walSeq < meta.MutSeq {
		en.walSeq = meta.MutSeq
	}
	en.jmu.Unlock()
	if jerr != nil {
		s.notePersistError(en, jerr)
	}
	s.metrics.replayed.Add(int64(replayed))

	// Lazy integrity: unless VerifyOnLoad already checked every section,
	// verify in the background while the snapshot serves. A checksum
	// mismatch degrades (and is almost certainly about to surface as
	// wrong answers — but crashing the server for a graph that may never
	// be queried again is worse than reporting it).
	if !s.verifyOnLoad {
		m.Retain()
		go func() {
			defer m.Release()
			if verr := m.Verify(); verr != nil {
				s.notePersistError(en, verr)
			}
		}()
	}
	return &RecoveredGraph{
		Name:          meta.Name,
		Version:       snap.Version,
		Vertices:      snap.Graph.NumVertices(),
		Edges:         snap.NumEdges(),
		Replayed:      replayed,
		SnapshotBytes: m.Size(),
	}, nil
}

// closeDurable tears down the entry's durability state: the persister
// stops and the journal closes. Called from retire (Remove / Close); a
// concurrent mutation ack observing the closed journal degrades, which
// the residual Remove race accepts. The pwMu acquire-release is a
// barrier: any snapshot write in flight completes before this returns,
// and every later persistEntry sees persistStopped and writes nothing —
// so after closeDurable the data directory is quiescent.
func (s *Store) closeDurable(en *storeEntry) {
	en.pmu.Lock()
	en.persistStopped = true
	en.pmu.Unlock()
	en.pwMu.Lock()
	//lint:ignore SA2001 empty critical section is the point: drain the writer.
	en.pwMu.Unlock()
	en.jmu.Lock()
	if en.journal != nil {
		en.journal.Close()
		en.journal = nil
	}
	en.jmu.Unlock()
}
