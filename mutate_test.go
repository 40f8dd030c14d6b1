package fastbcc_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fastbcc "repro"
)

func canon(e fastbcc.Edge) fastbcc.Edge {
	if e.U > e.W {
		e.U, e.W = e.W, e.U
	}
	return e
}

// oracleIndex builds a from-scratch decomposition + index over exactly
// the given edge multiset — the ground truth every mutated snapshot is
// diffed against.
func oracleIndex(t *testing.T, n int, edges []fastbcc.Edge) *fastbcc.Index {
	t.Helper()
	g, err := fastbcc.NewGraphFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	_, idx := fastbcc.BuildIndex(g, nil)
	return idx
}

// diffIndexes compares every O(1) query the Index answers, over all
// vertex pairs, plus global counts and sampled Separates triples.
func diffIndexes(t *testing.T, tag string, n int, got, want *fastbcc.Index) {
	t.Helper()
	if g, w := got.NumBlocks(), want.NumBlocks(); g != w {
		t.Fatalf("%s: NumBlocks = %d, oracle %d", tag, g, w)
	}
	if g, w := got.NumCutVertices(), want.NumCutVertices(); g != w {
		t.Fatalf("%s: NumCutVertices = %d, oracle %d", tag, g, w)
	}
	if g, w := got.NumBridges(), want.NumBridges(); g != w {
		t.Fatalf("%s: NumBridges = %d, oracle %d", tag, g, w)
	}
	if g, w := got.NumTwoECC(), want.NumTwoECC(); g != w {
		t.Fatalf("%s: NumTwoECC = %d, oracle %d", tag, g, w)
	}
	for u := int32(0); u < int32(n); u++ {
		if g, w := got.IsCutVertex(u), want.IsCutVertex(u); g != w {
			t.Fatalf("%s: IsCutVertex(%d) = %v, oracle %v", tag, u, g, w)
		}
		for v := int32(0); v < int32(n); v++ {
			if g, w := got.Connected(u, v), want.Connected(u, v); g != w {
				t.Fatalf("%s: Connected(%d,%d) = %v, oracle %v", tag, u, v, g, w)
			}
			if g, w := got.Biconnected(u, v), want.Biconnected(u, v); g != w {
				t.Fatalf("%s: Biconnected(%d,%d) = %v, oracle %v", tag, u, v, g, w)
			}
			if g, w := got.TwoEdgeConnected(u, v), want.TwoEdgeConnected(u, v); g != w {
				t.Fatalf("%s: TwoEdgeConnected(%d,%d) = %v, oracle %v", tag, u, v, g, w)
			}
			if g, w := got.NumCutsOnPath(u, v), want.NumCutsOnPath(u, v); g != w {
				t.Fatalf("%s: NumCutsOnPath(%d,%d) = %d, oracle %d", tag, u, v, g, w)
			}
			if g, w := got.NumBridgesOnPath(u, v), want.NumBridgesOnPath(u, v); g != w {
				t.Fatalf("%s: NumBridgesOnPath(%d,%d) = %d, oracle %d", tag, u, v, g, w)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4*n; i++ {
		x, u, v := int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))
		if g, w := got.Separates(x, u, v), want.Separates(x, u, v); g != w {
			t.Fatalf("%s: Separates(%d,%d,%d) = %v, oracle %v", tag, x, u, v, g, w)
		}
	}
}

func TestApplyBatchFastIntraBlock(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t) // triangle 0-1-2, bridge 2-3, square 3-4-5-6
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// 0 and 1 are biconnected and two-edge-connected (triangle): a
	// parallel edge changes no query answer — the fast path, no build.
	r, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fast != 1 || r.Collapsed != 0 || r.Queued != 0 || r.Pending != 0 {
		t.Fatalf("fast insert result: %+v", r)
	}
	if r.Version != 2 {
		t.Fatalf("fast insert version = %d, want 2", r.Version)
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.OverlayEdges() != 1 || cur.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("overlay=%d edges=%d", cur.OverlayEdges(), cur.NumEdges())
	}
	st, err := s.Status("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.OverlayEdges != 1 || st.PendingDeltas != 0 || st.DeltaFlushes != 0 {
		t.Fatalf("status after fast insert: %+v", st)
	}
	base := g.Edges()
	diffIndexes(t, "fast", 7, cur.Index, oracleIndex(t, 7, append(base, fastbcc.Edge{U: 0, W: 1})))
}

func TestApplyBatchCollapsePath(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// 0 (triangle) to 4 (square): the BC-tree path crosses cuts 2 and 3,
	// so the insertion merges triangle + bridge block + square into one
	// block — the collapse path, still no pipeline run.
	r, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Collapsed != 1 || r.Fast != 0 || r.Queued != 0 {
		t.Fatalf("collapse insert result: %+v", r)
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.Index.NumCutsOnPath(0, 4) != 0 || cur.Index.NumBridgesOnPath(0, 4) != 0 {
		t.Fatal("collapse left cuts or bridges on the 0-4 path")
	}
	diffIndexes(t, "collapse", 7, cur.Index, oracleIndex(t, 7, append(g.Edges(), fastbcc.Edge{U: 0, W: 4})))
}

func TestApplyBatchParallelEdgeOverBridge(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// 2 and 3 are biconnected (they share the bridge's 2-vertex block)
	// but NOT two-edge-connected: a parallel edge kills the bridge, which
	// only a rebuild expresses — the classifier must queue it.
	r, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 2, W: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Queued != 1 || r.Fast != 0 || r.Collapsed != 0 || r.Pending != 1 {
		t.Fatalf("parallel-over-bridge result: %+v", r)
	}
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.Index.NumBridges() != 0 || !cur.Index.TwoEdgeConnected(2, 3) {
		t.Fatal("flush did not kill the doubled bridge")
	}
	diffIndexes(t, "bridge-parallel", 7, cur.Index, oracleIndex(t, 7, append(g.Edges(), fastbcc.Edge{U: 2, W: 3})))
	st, _ := s.Status("g")
	if st.PendingDeltas != 0 || st.DeltaFlushes != 1 || st.OverlayEdges != 0 {
		t.Fatalf("status after flush: %+v", st)
	}
}

func TestApplyBatchDeleteAndSaturation(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// Deleting an absent edge saturates to a no-op; deleting the bridge
	// disconnects the square from the triangle.
	r, err := s.ApplyBatch(context.Background(), "g",
		nil, []fastbcc.Edge{{U: 0, W: 5}, {U: 2, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Queued != 2 {
		t.Fatalf("delete result: %+v", r)
	}
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.Index.Connected(0, 4) {
		t.Fatal("bridge delete did not disconnect 0 from 4")
	}
	want := []fastbcc.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 0, W: 2},
		{U: 3, W: 4}, {U: 4, W: 5}, {U: 5, W: 6}, {U: 3, W: 6},
	}
	diffIndexes(t, "delete", 7, cur.Index, oracleIndex(t, 7, want))
}

func TestApplyBatchAddThenDeleteSameBatch(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// The add applies on the fast path, the delete of the same edge
	// queues behind it; the flush must replay them in order and land on
	// the original edge set.
	r, err := s.ApplyBatch(context.Background(), "g",
		[]fastbcc.Edge{{U: 0, W: 1}}, []fastbcc.Edge{{U: 0, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fast != 1 || r.Queued != 1 {
		t.Fatalf("add+delete result: %+v", r)
	}
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.NumEdges() != g.NumEdges() {
		t.Fatalf("edges after add+delete = %d, want %d", cur.NumEdges(), g.NumEdges())
	}
	diffIndexes(t, "add-del", 7, cur.Index, oracleIndex(t, 7, g.Edges()))
}

func TestApplyBatchValidation(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	if _, err := s.ApplyBatch(context.Background(), "missing", []fastbcc.Edge{{U: 0, W: 1}}, nil); err == nil {
		t.Fatal("mutating an unloaded graph succeeded")
	}
	snap, err := s.Load(context.Background(), "g", storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if _, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 99}}, nil); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := s.ApplyBatch(context.Background(), "g", nil, []fastbcc.Edge{{U: -1, W: 0}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

// mutationFamilies are the graph shapes the randomized oracle crosstest
// runs over: general random, forest (every insertion is a collapse or a
// component merge), multigraph (self-loops and parallel edges), and
// disconnected clusters.
func mutationFamilies(rng *rand.Rand) map[string]struct {
	n     int
	edges []fastbcc.Edge
} {
	fam := map[string]struct {
		n     int
		edges []fastbcc.Edge
	}{}

	n := 18
	var random []fastbcc.Edge
	for i := 0; i < 24; i++ {
		random = append(random, fastbcc.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
	}
	fam["random"] = struct {
		n     int
		edges []fastbcc.Edge
	}{n, random}

	var forest []fastbcc.Edge
	for v := 1; v < n; v++ {
		if rng.Float64() < 0.75 {
			forest = append(forest, fastbcc.Edge{U: int32(rng.Intn(v)), W: int32(v)})
		}
	}
	fam["forest"] = struct {
		n     int
		edges []fastbcc.Edge
	}{n, forest}

	var multi []fastbcc.Edge
	for i := 0; i < 20; i++ {
		u, w := int32(rng.Intn(12)), int32(rng.Intn(12))
		multi = append(multi, fastbcc.Edge{U: u, W: w})
		if rng.Float64() < 0.4 {
			multi = append(multi, fastbcc.Edge{U: u, W: w}) // parallel
		}
	}
	multi = append(multi, fastbcc.Edge{U: 3, W: 3}, fastbcc.Edge{U: 7, W: 7})
	fam["multigraph"] = struct {
		n     int
		edges []fastbcc.Edge
	}{12, multi}

	var disc []fastbcc.Edge
	for i := 0; i < 10; i++ {
		disc = append(disc, fastbcc.Edge{U: int32(rng.Intn(8)), W: int32(rng.Intn(8))})
		disc = append(disc, fastbcc.Edge{U: int32(8 + rng.Intn(8)), W: int32(8 + rng.Intn(8))})
	}
	fam["disconnected"] = struct {
		n     int
		edges []fastbcc.Edge
	}{16, disc}

	return fam
}

// TestMutationOracleRandomized is the crosstest the acceptance criteria
// require: randomized add/del sequences on four graph families, diffing
// every Index query after each applied mutation against a from-scratch
// rebuild oracle. Single-mutation batches make the serving edge set
// deterministic: a mutation either applies (fast/collapse — the serving
// snapshot now reflects it) or queues (it applies at the next flush).
func TestMutationOracleRandomized(t *testing.T) {
	for famName, fam := range mutationFamilies(rand.New(rand.NewSource(42))) {
		fam := fam
		t.Run(famName, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(famName)) * 1009))
			// A huge coalesce window parks the async flusher, so queued
			// deltas reach the serving snapshot ONLY through the explicit
			// FlushDeltas below — that determinism is what lets the test
			// know exactly which edge multiset the snapshot reflects.
			s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
				Workers:          2,
				MutationCoalesce: time.Hour,
			})
			defer s.Close()
			g, err := fastbcc.NewGraphFromEdges(fam.n, fam.edges)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s.Load(context.Background(), famName, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			snap.Release()

			// served: the edge multiset the serving snapshot reflects.
			// full: counts after every accepted mutation (what serving
			// becomes after a flush).
			served := append([]fastbcc.Edge(nil), g.Edges()...)
			full := map[fastbcc.Edge]int{}
			for _, e := range served {
				full[canon(e)]++
			}
			expand := func() []fastbcc.Edge {
				var out []fastbcc.Edge
				for e, c := range full {
					for i := 0; i < c; i++ {
						out = append(out, e)
					}
				}
				return out
			}

			const steps = 60
			for i := 0; i < steps; i++ {
				e := canon(fastbcc.Edge{U: int32(rng.Intn(fam.n)), W: int32(rng.Intn(fam.n))})
				if rng.Float64() < 0.6 {
					r, err := s.ApplyBatch(context.Background(), famName, []fastbcc.Edge{e}, nil)
					if err != nil {
						t.Fatal(err)
					}
					full[e]++
					if r.Fast+r.Collapsed == 1 {
						served = append(served, e)
					} else if r.Queued != 1 {
						t.Fatalf("step %d: add disposed nowhere: %+v", i, r)
					}
				} else {
					if rng.Float64() < 0.5 && len(served) > 0 {
						e = canon(served[rng.Intn(len(served))])
					}
					if _, err := s.ApplyBatch(context.Background(), famName, nil, []fastbcc.Edge{e}); err != nil {
						t.Fatal(err)
					}
					if full[e] > 0 {
						full[e]--
					}
				}
				if rng.Float64() < 0.3 || i == steps-1 {
					if err := s.FlushDeltas(context.Background(), famName); err != nil {
						t.Fatal(err)
					}
					served = expand()
				}
				cur, err := s.Acquire(famName)
				if err != nil {
					t.Fatal(err)
				}
				diffIndexes(t, fmt.Sprintf("%s step %d", famName, i), fam.n,
					cur.Index, oracleIndex(t, fam.n, served))
				cur.Release()
			}
			st, err := s.Status(famName)
			if err != nil {
				t.Fatal(err)
			}
			if st.PendingDeltas != 0 {
				t.Fatalf("pending deltas after final flush: %+v", st)
			}
		})
	}
}

// TestMutationBurstCoalesces is the acceptance criterion: a burst of 100
// unclassifiable mutations triggers at most 3 coalesced rebuilds, with
// queries serving throughout.
func TestMutationBurstCoalesces(t *testing.T) {
	s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers:          2,
		MutationCoalesce: 50 * time.Millisecond,
	})
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			cur, err := s.Acquire("g")
			if err != nil {
				t.Error(err)
				return
			}
			if !cur.Index.Connected(0, 4) {
				t.Error("query served a disconnected 0-4 during the burst")
				cur.Release()
				return
			}
			cur.Release()
		}
	}()

	// 100 deletions of absent edges: every one is unclassifiable, every
	// one is a saturating no-op, so the graph never actually changes.
	for i := 0; i < 100; i++ {
		r, err := s.ApplyBatch(context.Background(), "g",
			nil, []fastbcc.Edge{{U: 0, W: int32(4 + i%3)}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Queued != 1 {
			t.Fatalf("burst mutation %d: %+v", i, r)
		}
	}
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()

	st, err := s.Status("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.PendingDeltas != 0 {
		t.Fatalf("pending after drain: %+v", st)
	}
	if st.DeltaFlushes < 1 || st.DeltaFlushes > 3 {
		t.Fatalf("burst of 100 mutations ran %d coalesced rebuilds, want 1..3", st.DeltaFlushes)
	}
	stats := s.Stats()
	if stats.DeltaFlushes != st.DeltaFlushes || stats.PendingDeltas != 0 {
		t.Fatalf("store stats disagree: %+v", stats)
	}
}

// TestFlushBuildsKeepCoalesceGap pins the flush pacing: mutations that
// arrive during a flush build wait out one more coalesce window after
// it, so flush builds never run back to back (on one CPU, back-to-back
// flushes leave readers no time between builds).
func TestFlushBuildsKeepCoalesceGap(t *testing.T) {
	const window = 20 * time.Millisecond
	s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers:          2,
		MutationCoalesce: window,
	})
	defer s.Close()
	snap, err := s.Load(context.Background(), "g", storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// Deletions of an absent edge, arriving faster than the flusher
	// drains them, so nearly every flush has deltas waiting when it ends.
	start := time.Now()
	for time.Since(start) < 150*time.Millisecond {
		if _, err := s.ApplyBatch(context.Background(), "g",
			nil, []fastbcc.Edge{{U: 0, W: 4}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Drain without FlushDeltas, whose kicks skip the window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status("g")
		if err != nil {
			t.Fatal(err)
		}
		if st.PendingDeltas == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deltas never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	ts, err := s.Trace("g")
	if err != nil {
		t.Fatal(err)
	}
	var flushes []fastbcc.BuildTrace
	for _, tr := range ts {
		if tr.StartedAt.After(start) {
			flushes = append(flushes, tr)
		}
	}
	slices.SortFunc(flushes, func(a, b fastbcc.BuildTrace) int { return a.StartedAt.Compare(b.StartedAt) })
	if len(flushes) < 3 {
		t.Fatalf("%d flush builds in 150ms of mutations, want at least 3", len(flushes))
	}
	for i := 1; i < len(flushes); i++ {
		prev := flushes[i-1]
		if gap := flushes[i].StartedAt.Sub(prev.StartedAt.Add(prev.Duration)); gap < window {
			t.Fatalf("flush %d started %v after flush %d ended, want at least the %v window", i, gap, i-1, window)
		}
	}
}

func TestLoadDiscardsPendingDeltas(t *testing.T) {
	s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers:          2,
		MutationCoalesce: time.Hour, // park the async flusher well away
	})
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	if _, err := s.ApplyBatch(context.Background(), "g", nil, []fastbcc.Edge{{U: 2, W: 3}}); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status("g"); st.PendingDeltas != 1 {
		t.Fatalf("pending before reload: %+v", st)
	}

	// Load replaces the graph wholesale: the queued deltas describe edges
	// of the old graph and must die with it.
	snap2, err := s.Load(context.Background(), "g", storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Release()
	if st, _ := s.Status("g"); st.PendingDeltas != 0 {
		t.Fatalf("pending after reload: %+v", st)
	}
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if !cur.Index.Connected(0, 4) {
		t.Fatal("discarded delete was applied to the new graph")
	}
}

func TestRebuildFoldsOverlay(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	if _, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	snap2, err := s.Rebuild(context.Background(), "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Release()
	if snap2.OverlayEdges() != 0 {
		t.Fatalf("rebuild kept %d overlay edges", snap2.OverlayEdges())
	}
	if snap2.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("rebuild lost the overlay edge: %d edges, want %d", snap2.NumEdges(), g.NumEdges()+1)
	}
	diffIndexes(t, "rebuild-fold", 7, snap2.Index, oracleIndex(t, 7, append(g.Edges(), fastbcc.Edge{U: 0, W: 1})))
}

// TestMutationOrderingAfterQueue: once any delta is pending, even
// fast-classifiable insertions must queue behind it so the flush replays
// arrival order.
func TestMutationOrderingAfterQueue(t *testing.T) {
	s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers:          2,
		MutationCoalesce: time.Hour,
	})
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	if _, err := s.ApplyBatch(context.Background(), "g", nil, []fastbcc.Edge{{U: 2, W: 3}}); err != nil {
		t.Fatal(err)
	}
	// {0,1} is fast-classifiable, but a delta is pending: it must queue.
	r, err := s.ApplyBatch(context.Background(), "g", []fastbcc.Edge{{U: 0, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fast != 0 || r.Queued != 1 || r.Pending != 2 {
		t.Fatalf("mutation behind pending delta: %+v", r)
	}
	if r.DeltaAge <= 0 {
		t.Fatalf("delta age not reported: %+v", r)
	}
	if err := s.FlushDeltas(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	cur, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	want := append(g.Edges()[:0:0], g.Edges()...)
	want = append(want, fastbcc.Edge{U: 0, W: 1})
	// minus the deleted bridge {2,3}:
	trimmed := want[:0]
	removed := false
	for _, e := range want {
		if !removed && canon(e) == (fastbcc.Edge{U: 2, W: 3}) {
			removed = true
			continue
		}
		trimmed = append(trimmed, e)
	}
	diffIndexes(t, "ordering", 7, cur.Index, oracleIndex(t, 7, trimmed))
}
