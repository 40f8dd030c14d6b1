package fastbcc_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fastbcc "repro"
)

// TestStoreEpochReclamationStress is the serving-stack half of the epoch
// reclamation stress suite (the domain-level half lives in
// internal/epoch): reader goroutines run batched queries through their
// own epoch Handles while a writer continuously rebuilds the graph,
// retiring a snapshot per rebuild. Run with -race in CI.
//
// It asserts the three properties the refactor must preserve:
//   - no snapshot is reclaimed while a pinned reader is inside it
//     (answers stay correct — a freed index would misanswer or fault,
//     and the race detector would flag the reclaim itself);
//   - batches never mix versions (each batch reports one version);
//   - retired snapshots are eventually reclaimed: after the churn stops
//     and readers quiesce, the live-snapshot gauge returns to steady
//     state and the retired gauge drains to zero.
func TestStoreEpochReclamationStress(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuild churn stress")
	}
	st := fastbcc.NewStore(0)
	defer st.Close()
	g := fastbcc.GenerateRMAT(10, 8, 0x5EED)
	ctx := context.Background()
	snap, err := st.Load(ctx, "churn", g, &fastbcc.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// The answers are a function of the graph alone — every rebuild of
	// the same graph must produce them bit-for-bit, so readers can
	// assert exact equality across versions.
	qs := make([]fastbcc.Query, 512)
	n := int32(g.NumVertices())
	for i := range qs {
		qs[i] = fastbcc.Query{
			Op: fastbcc.OpConnected + fastbcc.QueryOp(i%6),
			U:  int32(i*31) % n,
			V:  int32(i*17+5) % n,
			X:  int32(i*13+9) % n,
		}
	}
	h0 := st.NewHandle()
	defer h0.Close()
	want, _, err := handleBatch(ctx, h0, "churn", qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]fastbcc.Answer(nil), want...)

	const readers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	var batches atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := st.NewHandle()
			defer h.Close()
			dst := make([]fastbcc.Answer, 0, len(qs))
			var lastVersion int64
			for !stop.Load() {
				out, version, err := handleBatch(ctx, h, "churn", qs, dst)
				if err != nil {
					t.Errorf("batch under churn: %v", err)
					return
				}
				if version < lastVersion {
					t.Errorf("batch version went backwards: %d after %d", version, lastVersion)
					return
				}
				lastVersion = version
				for i := range want {
					if out[i] != want[i] {
						t.Errorf("answer %d diverged under churn: got %d, want %d (version %d)",
							i, out[i], want[i], version)
						return
					}
				}
				dst = out
				batches.Add(1)
			}
		}()
	}

	// Writer: rebuild as fast as possible; every rebuild retires the
	// previous snapshot into the epoch domain while readers are inside it.
	const rebuilds = 60
	for i := 0; i < rebuilds; i++ {
		snap, err := st.Rebuild(ctx, "churn", nil)
		if err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
		snap.Release()
	}
	stop.Store(true)
	wg.Wait()
	if batches.Load() == 0 {
		t.Fatal("no batches completed under churn")
	}

	// Eventual reclamation: with readers quiescent, the gauges settle to
	// exactly one live snapshot (the current version) and zero retired.
	// Stats itself runs a reclaim scan, so poll it briefly — handles
	// were closed above but a final in-flight release may lag a tick.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := st.Stats()
		if stats.LiveSnapshots == 1 && stats.RetiredSnapshots == 0 {
			if stats.Batches == 0 || stats.BatchQueries == 0 {
				t.Fatalf("batch counters not populated: %+v", stats)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not settle: live=%d retired=%d (want 1/0)",
				stats.LiveSnapshots, stats.RetiredSnapshots)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStoreHandleCatalogCache: a Handle's cached name→entry resolution
// must be invalidated by Remove and by a Load that re-creates the entry
// — the catalogGen protocol.
func TestStoreHandleCatalogCache(t *testing.T) {
	st := fastbcc.NewStore(0)
	defer st.Close()
	g := fastbcc.GenerateRMAT(8, 8, 1)
	ctx := context.Background()
	snap, err := st.Load(ctx, "a", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	h := st.NewHandle()
	defer h.Close()
	s1, err := h.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	v1 := s1.Version
	h.Release()

	// Remove: the cached entry must not resurrect the name.
	if err := st.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Acquire("a"); err == nil {
		t.Fatal("Acquire through a stale cached entry succeeded after Remove")
	}

	// Reload under the same name: the handle must see the new entry.
	snap, err = st.Load(ctx, "a", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	s2, err := h.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 1 || v1 != 1 {
		t.Fatalf("versions: first %d, after reload %d (each load starts at 1)", v1, s2.Version)
	}
	h.Release()
}

// TestStoreQueryBatchParallelPath exercises the large-batch fan-out over
// the Runner workers (and its error propagation) with a batch over the
// parallel threshold, and the same batch on a Snapshot built outside a
// Store, which has no workers to fan out over.
func TestStoreQueryBatchParallelPath(t *testing.T) {
	st := fastbcc.NewStore(0)
	defer st.Close()
	g := fastbcc.GenerateRMAT(10, 8, 3)
	snap, err := st.Load(context.Background(), "g", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	h := st.NewHandle()
	defer h.Close()
	n := int32(g.NumVertices())

	const big = 1 << 16 // over parallelBatchMin
	qs := make([]fastbcc.Query, big)
	for i := range qs {
		qs[i] = fastbcc.Query{
			Op: fastbcc.OpConnected + fastbcc.QueryOp(i%6),
			U:  int32(i*7) % n,
			V:  int32(i*11+3) % n,
			X:  int32(i*5+1) % n,
		}
	}
	out, _, err := handleBatch(context.Background(), h, "g", qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check against scalar answers.
	for _, i := range []int{0, 1, 12345, big - 1} {
		q := qs[i]
		var want fastbcc.Answer
		single, _, err := handleBatch(context.Background(), h, "g", []fastbcc.Query{q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = single[0]
		if out[i] != want {
			t.Fatalf("parallel batch answer %d: got %d, want %d", i, out[i], want)
		}
	}
	bare := &fastbcc.Snapshot{Graph: snap.Graph, Result: snap.Result, Index: snap.Index}
	bareOut, err := bare.QueryBatch(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if bareOut[i] != out[i] {
			t.Fatalf("store-less batch answer %d: got %d, store answered %d", i, bareOut[i], out[i])
		}
	}

	// An invalid query deep in the batch fails the whole batch and names
	// the lowest failing index deterministically.
	bad := make([]fastbcc.Query, big)
	copy(bad, qs)
	bad[40000].V = n + 5
	bad[50000].Op = 0
	if _, _, err := handleBatch(context.Background(), h, "g", bad, nil); err == nil {
		t.Fatal("parallel batch with invalid query succeeded")
	} else if want := "query 40000"; !strings.Contains(err.Error(), want) {
		t.Fatalf("parallel batch error %q does not name the lowest bad index (%s)", err, want)
	}
}

// handleBatch answers qs against name's current snapshot the way the
// serving paths do — Handle.Acquire, Snapshot.QueryBatch, Handle.Release
// — and returns the version the batch was answered from.
func handleBatch(ctx context.Context, h *fastbcc.Handle, name string, qs []fastbcc.Query, dst []fastbcc.Answer) ([]fastbcc.Answer, int64, error) {
	snap, err := h.Acquire(name)
	if err != nil {
		return nil, 0, err
	}
	defer h.Release()
	out, err := snap.QueryBatch(ctx, qs, dst)
	return out, snap.Version, err
}
