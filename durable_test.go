package fastbcc_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	fastbcc "repro"
	"repro/internal/faultpoint"
	"repro/internal/persist"
)

// durableStore builds a Store persisting under dir, with the async
// flusher parked (tests flush explicitly for determinism).
func durableStore(dir string) *fastbcc.Store {
	return fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers:          2,
		MutationCoalesce: time.Hour,
		DataDir:          dir,
	})
}

// TestDurableRecoveryRoundTrip is the tentpole's core contract: load,
// mutate (every disposition: fast, collapse, queued, deleted), flush
// some of it, persist, mutate more WITHOUT persisting — then close,
// recover in a fresh store, and diff every query against a from-scratch
// oracle over the full acknowledged edge multiset. The mutations after
// the last persisted snapshot survive only through the journal.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := storeTestGraph(t) // triangle 0-1-2, bridge 2-3, square 3-4-5-6
	full := map[fastbcc.Edge]int{}
	for _, e := range g.Edges() {
		full[canon(e)]++
	}
	apply := func(s *fastbcc.Store, adds, dels []fastbcc.Edge) {
		t.Helper()
		if _, err := s.ApplyBatch(context.Background(), "g", adds, dels); err != nil {
			t.Fatal(err)
		}
		for _, e := range adds {
			full[canon(e)]++
		}
		for _, e := range dels {
			if full[canon(e)] > 0 {
				full[canon(e)]--
			}
		}
	}

	s := durableStore(dir)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// Pre-snapshot history: a fast add, a queued bridge doubling, a
	// delete — flushed, then persisted, so the snapshot reflects it all.
	apply(s, []fastbcc.Edge{{U: 0, W: 1}}, nil)
	apply(s, []fastbcc.Edge{{U: 2, W: 3}}, nil)
	apply(s, nil, []fastbcc.Edge{{U: 4, W: 5}})
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("g"); err != nil {
		t.Fatal(err)
	}

	// Post-snapshot history: acknowledged, journaled, never persisted.
	// The fast add (1-2 stays inside the triangle block) exercises the
	// applied-record path; the deletes and the add queued behind them
	// exercise the queued-record path.
	apply(s, []fastbcc.Edge{{U: 1, W: 2}}, nil)
	apply(s, nil, []fastbcc.Edge{{U: 3, W: 6}})
	apply(s, []fastbcc.Edge{{U: 0, W: 6}}, nil)
	s.Close()

	// A fresh store over the same directory: the snapshot serves
	// immediately, the journal tail replays through the delta queue.
	s2 := durableStore(dir)
	defer s2.Close()
	rep, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("recovery failures: %+v", rep.Failures)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Name != "g" {
		t.Fatalf("recovered graphs: %+v", rep.Graphs)
	}
	if rep.Graphs[0].Replayed == 0 {
		t.Fatal("post-snapshot mutations were not queued for replay")
	}

	// Stale-but-correct: before any flush, the snapshot answers as of
	// its persist point (0 and 4 became connected pre-snapshot).
	cur, err := s2.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Index.Connected(0, 4) {
		t.Fatal("recovered snapshot lost pre-snapshot state")
	}
	cur.Release()

	// One coalesced flush catches up to the full acknowledged history.
	if err := s2.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	var want []fastbcc.Edge
	for e, c := range full {
		for i := 0; i < c; i++ {
			want = append(want, e)
		}
	}
	cur, err = s2.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	diffIndexes(t, "recovered", 7, cur.Index, oracleIndex(t, 7, want))

	stats := s2.Stats()
	if stats.RecoveredGraphs != 1 || stats.ReplayedMutations == 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
}

// TestDurableOverlayInSnapshot is the satellite regression: a snapshot
// persisted while overlay edges are live (fast/collapse mutations not
// yet folded by a flush) must carry the overlay, and recovery must
// serve it — an overlay edge silently dropped by the encode path would
// pass every no-mutation test and corrupt exactly the graphs that were
// mutated before the crash.
func TestDurableOverlayInSnapshot(t *testing.T) {
	dir := t.TempDir()
	g := storeTestGraph(t)

	s := durableStore(dir)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	// Fast-path add: lives only in the overlay, no flush.
	if r, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 1}}, nil); err != nil || r.Fast != 1 {
		t.Fatalf("fast add: %+v, %v", r, err)
	}
	if err := s.Persist("g"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := durableStore(dir)
	defer s2.Close()
	rep, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || len(rep.Failures) != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	cur, err := s2.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.OverlayEdges() != 1 {
		t.Fatalf("recovered overlay edges = %d, want 1", cur.OverlayEdges())
	}
	if cur.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("recovered edges = %d, want %d", cur.NumEdges(), g.NumEdges()+1)
	}
	diffIndexes(t, "overlay-recovered", 7, cur.Index,
		oracleIndex(t, 7, append(g.Edges(), fastbcc.Edge{U: 0, W: 1})))
	// The overlay also survives a further flush on the recovered entry.
	if _, err := s2.ApplyBatch(context.Background(), "g", nil, []fastbcc.Edge{{U: 2, W: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	want := append(g.Edges(), fastbcc.Edge{U: 0, W: 1})
	trimmed := want[:0]
	removed := false
	for _, e := range want {
		if !removed && canon(e) == (fastbcc.Edge{U: 2, W: 3}) {
			removed = true
			continue
		}
		trimmed = append(trimmed, e)
	}
	cur2, err := s2.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Release()
	diffIndexes(t, "overlay-flushed", 7, cur2.Index, oracleIndex(t, 7, trimmed))
}

// TestDurableFaultDegradation: injected persistence faults degrade
// durability — Status reports it, counters count it — but queries and
// mutation acknowledgments never fail.
func TestDurableFaultDegradation(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	s := durableStore(dir)
	defer s.Close()
	snap, err := s.Load(context.Background(), "g", storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := s.Persist("g"); err != nil {
		t.Fatal(err)
	}

	for _, fp := range []string{persist.FaultWrite, persist.FaultFsync, persist.FaultRename} {
		if err := faultpoint.Set(fp + "=error"); err != nil {
			t.Fatal(err)
		}
		// Mutations still acknowledge (the WAL append fails under
		// persist.write; the others only hit the snapshot path).
		if _, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 1}}, nil); err != nil {
			t.Fatalf("%s: mutation ack failed under fault: %v", fp, err)
		}
		// Snapshot writes fail, reported not fatal.
		if err := s.Persist("g"); err == nil {
			t.Fatalf("%s: Persist succeeded under fault", fp)
		}
		// Queries keep serving.
		cur, err := s.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Index.Connected(0, 4) {
			t.Fatalf("%s: query answer changed under fault", fp)
		}
		cur.Release()
		st, err := s.Status("g")
		if err != nil {
			t.Fatal(err)
		}
		if !st.DurabilityDegraded || st.LastPersistError == "" {
			t.Fatalf("%s: status not degraded: %+v", fp, st)
		}
		faultpoint.Disarm(fp)
	}

	// Recovery: a successful persist clears the degradation.
	if err := s.Persist("g"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.DurabilityDegraded {
		t.Fatalf("degradation not cleared by successful persist: %+v", st)
	}
	if stats := s.Stats(); stats.PersistFailures == 0 || stats.DegradedGraphs != 0 {
		t.Fatalf("stats after recovery: %+v", stats)
	}
}

// TestDurableCorruptSnapshotSkipped: a corrupt snapshot fails that one
// graph's recovery — reported, directory left for inspection — without
// blocking other graphs.
func TestDurableCorruptSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	s := durableStore(dir)
	for _, name := range []string{"good", "bad"} {
		snap, err := s.Load(context.Background(), name, storeTestGraph(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		snap.Release()
		if err := s.Persist(name); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a 256-byte span in the middle of bad's snapshot: well past the
	// header, and wide enough to guarantee hitting checksummed section
	// data rather than only alignment padding.
	badSnap := filepath.Join(dir, "g-bad", "snapshot.fbcc")
	raw, err := os.ReadFile(badSnap)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 2; i < len(raw)/2+256 && i < len(raw); i++ {
		raw[i] ^= 0x40
	}
	if err := os.WriteFile(badSnap, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers:      2,
		DataDir:      dir,
		VerifyOnLoad: true,
	})
	defer s2.Close()
	rep, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Name != "good" {
		t.Fatalf("recovered: %+v", rep.Graphs)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures: %+v", rep.Failures)
	}
	if _, err := s2.Acquire("bad"); err == nil {
		t.Fatal("corrupt graph is serving")
	}
	cur, err := s2.Acquire("good")
	if err != nil {
		t.Fatal(err)
	}
	cur.Release()
}

// TestDurableRemoveDeletesData: Remove tears down the graph's data
// directory, so a later Recover cannot resurrect it.
func TestDurableRemoveDeletesData(t *testing.T) {
	dir := t.TempDir()
	s := durableStore(dir)
	snap, err := s.Load(context.Background(), "g", storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := s.Persist("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "g-g", "snapshot.fbcc")); err != nil {
		t.Fatalf("snapshot not on disk before Remove: %v", err)
	}
	if err := s.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "g-g")); !os.IsNotExist(err) {
		t.Fatalf("graph dir survived Remove: %v", err)
	}
	s.Close()

	s2 := durableStore(dir)
	defer s2.Close()
	rep, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 0 || len(rep.Failures) != 0 {
		t.Fatalf("removed graph resurrected: %+v", rep)
	}
}

// TestDurableUnsafeNamesRoundTrip: catalog names that cannot be file
// names hex-encode into their directory and recover under the original
// name (the meta blob is authoritative).
func TestDurableUnsafeNamesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := durableStore(dir)
	const name = "../evil graph/№1"
	snap, err := s.Load(context.Background(), name, storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := s.Persist(name); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Everything must have landed inside dir (no path traversal).
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name()[:2] != "x-" {
		t.Fatalf("unsafe name landed as %v", ents)
	}

	s2 := durableStore(dir)
	defer s2.Close()
	rep, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Name != name {
		t.Fatalf("recovered: %+v", rep.Graphs)
	}
	cur, err := s2.Acquire(name)
	if err != nil {
		t.Fatal(err)
	}
	cur.Release()
}

// TestDurableMetricsExposed: the fastbcc_persist_* series record real
// durability activity, and StoreStats reports exactly what they expose —
// on the serving store and on the store that recovers its directory.
func TestDurableMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	s := durableStore(dir)
	snap, err := s.Load(context.Background(), "g", storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if _, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("g"); err != nil {
		t.Fatal(err)
	}
	// Journaled but never persisted: Recover must replay it.
	if _, err := s.ApplyBatch(context.Background(), "g", nil, []fastbcc.Edge{{U: 2, W: 3}}); err != nil {
		t.Fatal(err)
	}
	// Close drains the background persister, so the counts are final.
	s.Close()
	stats := s.Stats()
	if stats.WalAppends != 2 {
		t.Errorf("WalAppends = %d, want 2", stats.WalAppends)
	}
	if stats.PersistedSnapshots == 0 {
		t.Errorf("no persisted snapshots recorded: %+v", stats)
	}
	reg := s.Metrics()
	if got := gatherValue(t, reg, "fastbcc_persist_wal_appends_total", `outcome="ok"`); got != float64(stats.WalAppends) {
		t.Errorf(`wal_appends_total{outcome="ok"} = %v, Stats.WalAppends = %d`, got, stats.WalAppends)
	}
	if got := gatherValue(t, reg, "fastbcc_persist_snapshots_total", `outcome="ok"`); got != float64(stats.PersistedSnapshots) {
		t.Errorf(`snapshots_total{outcome="ok"} = %v, Stats.PersistedSnapshots = %d`, got, stats.PersistedSnapshots)
	}

	s2 := durableStore(dir)
	defer s2.Close()
	if _, err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats = s2.Stats()
	if stats.RecoveredGraphs != 1 || stats.ReplayedMutations != 1 {
		t.Errorf("Stats recovered/replayed = %d/%d, want 1/1", stats.RecoveredGraphs, stats.ReplayedMutations)
	}
	reg = s2.Metrics()
	if got := gatherValue(t, reg, "fastbcc_persist_recovered_graphs_total", ""); got != float64(stats.RecoveredGraphs) {
		t.Errorf("recovered_graphs_total = %v, Stats.RecoveredGraphs = %d", got, stats.RecoveredGraphs)
	}
	if got := gatherValue(t, reg, "fastbcc_persist_replayed_mutations_total", ""); got != float64(stats.ReplayedMutations) {
		t.Errorf("replayed_mutations_total = %v, Stats.ReplayedMutations = %d", got, stats.ReplayedMutations)
	}
}

// TestDurableSnapshotLoadSpeedup is the acceptance smoke: recovering a
// persisted graph (mmap + journal scan) must beat rebuilding it from
// scratch by >= 10x. Best-of-3 on both sides to shave scheduler noise.
func TestDurableSnapshotLoadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing acceptance check")
	}
	dir := t.TempDir()
	g := fastbcc.GenerateRMAT(17, 8, 0xD0) // ~131k vertices, ~1M arcs

	s := durableStore(dir)
	snap, err := s.Load(context.Background(), "big", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := s.Persist("big"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	best := func(rounds int, f func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	recoverT := best(3, func() {
		s2 := durableStore(dir)
		rep, err := s2.Recover(context.Background())
		if err != nil || len(rep.Graphs) != 1 {
			t.Fatalf("recover: %+v, %v", rep, err)
		}
		cur, err := s2.Acquire("big")
		if err != nil {
			t.Fatal(err)
		}
		cur.Index.Connected(0, 1) // touch the restored index
		cur.Release()
		s2.Close()
	})
	buildT := best(3, func() {
		s3 := fastbcc.NewStore(2)
		snap, err := s3.Load(context.Background(), "big", g, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap.Release()
		s3.Close()
	})
	t.Logf("recover=%v rebuild=%v ratio=%.1fx", recoverT, buildT, float64(buildT)/float64(recoverT))
	if buildT < 10*recoverT {
		t.Fatalf("recover=%v not >=10x faster than rebuild=%v", recoverT, buildT)
	}
}

// TestDurableWalSeqMonotonicAcrossRestart: sequence numbers keep
// climbing after recovery — a reset walSeq would let a new record reuse
// a truncated seq and corrupt the truncation protocol.
func TestDurableWalSeqMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	n := 16
	var edges []fastbcc.Edge
	for i := 0; i < 24; i++ {
		edges = append(edges, fastbcc.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
	}
	g, err := fastbcc.NewGraphFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	full := map[fastbcc.Edge]int{}
	for _, e := range edges {
		full[canon(e)]++
	}

	// Three generations of store over the same directory, mutating and
	// crashing (Close without final persist) each time.
	for gen := 0; gen < 3; gen++ {
		s := durableStore(dir)
		if gen == 0 {
			snap, err := s.Load(context.Background(), "g", g, nil)
			if err != nil {
				t.Fatal(err)
			}
			snap.Release()
			// Make the base snapshot durable before any Close: a journal
			// whose base graph never reached disk is unrecoverable by
			// design, and this test is about sequence numbers, not the
			// load-then-instant-crash window.
			if err := s.Persist("g"); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.Recover(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			e := canon(fastbcc.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
			if rng.Float64() < 0.5 {
				if _, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{e}, nil); err != nil {
					t.Fatal(err)
				}
				full[e]++
			} else {
				if _, err := s.ApplyBatch(context.Background(), "g", nil, []fastbcc.Edge{e}); err != nil {
					t.Fatal(err)
				}
				if full[e] > 0 {
					full[e]--
				}
			}
		}
		if gen == 1 {
			// Middle generation persists mid-history, so the final
			// recovery replays across a snapshot boundary.
			if err := s.FlushDeltas(context.Background(), "g"); err != nil {
				t.Fatal(err)
			}
			if err := s.Persist("g"); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}

	s := durableStore(dir)
	defer s.Close()
	if _, err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	var want []fastbcc.Edge
	for e, c := range full {
		for i := 0; i < c; i++ {
			want = append(want, e)
		}
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	diffIndexes(t, "three-generations", n, cur.Index, oracleIndex(t, n, want))
}

// TestDurableMappingSurvivesRebuildAndFastInsert: a recovered snapshot's
// CSR aliases its mmap'd file, and so does every later version that
// shares that CSR — a Rebuild with no overlay to fold, and a fast-class
// insert. Each must hold the mapping itself: once the version it
// replaced is reclaimed, one that did not would read unmapped memory
// and fault.
func TestDurableMappingSurvivesRebuildAndFastInsert(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	g := storeTestGraph(t)
	s := durableStore(dir)
	snap, err := s.Load(ctx, "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := s.Persist("g"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := durableStore(dir)
	defer s2.Close()
	if rep, err := s2.Recover(ctx); err != nil || len(rep.Graphs) != 1 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	// check waits until only the serving version is live — the
	// background persister holds a fresh version while it writes it —
	// then compares the served CSR with the loaded graph.
	check := func(step string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for st := s2.Stats(); st.LiveSnapshots != 1 || st.RetiredSnapshots != 0; st = s2.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: live=%d retired=%d, want 1/0", step, st.LiveSnapshots, st.RetiredSnapshots)
			}
			time.Sleep(5 * time.Millisecond)
		}
		cur, err := s2.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Release()
		if !slices.Equal(cur.Graph.Offsets, g.Offsets) || !slices.Equal(cur.Graph.Adj, g.Adj) {
			t.Fatalf("%s: served CSR differs from the loaded graph", step)
		}
	}

	snap, err = s2.Rebuild(ctx, "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	check("rebuild")
	if r, err := s2.ApplyBatch(ctx, "g", []fastbcc.Edge{{U: 0, W: 1}}, nil); err != nil || r.Fast != 1 {
		t.Fatalf("fast insert: %+v, %v", r, err)
	}
	check("fast insert")
}
