package fastbcc_test

import (
	"context"
	"sync"
	"testing"
	"time"

	fastbcc "repro"
)

func storeTestGraph(t *testing.T) *fastbcc.Graph {
	t.Helper()
	// Triangle 0-1-2, bridge 2-3, square 3-4-5-6.
	g, err := fastbcc.NewGraphFromEdges(7, []fastbcc.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0},
		{U: 2, W: 3},
		{U: 3, W: 4}, {U: 4, W: 5}, {U: 5, W: 6}, {U: 6, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStoreLoadAcquireRebuild(t *testing.T) {
	s := fastbcc.NewStore(4)
	defer s.Close()
	g := storeTestGraph(t)

	snap, err := s.Load(context.Background(), "demo", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || snap.Name != "demo" {
		t.Fatalf("version=%d name=%q", snap.Version, snap.Name)
	}
	if !snap.Index.Separates(2, 0, 4) || snap.Index.NumBridgesOnPath(0, 4) != 1 {
		t.Fatal("snapshot index answers wrong")
	}
	snap.Release()

	got, err := s.Acquire("demo")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("acquired version %d", got.Version)
	}

	// Rebuild swaps in version 2; the held version-1 snapshot stays valid.
	snap2, err := s.Rebuild(context.Background(), "demo", &fastbcc.Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version != 2 {
		t.Fatalf("rebuild version %d", snap2.Version)
	}
	if st := s.Stats(); st.Graphs != 1 || st.LiveSnapshots != 2 {
		t.Fatalf("stats after rebuild: %+v", st)
	}
	if !got.Index.Biconnected(0, 1) || got.Result.NumBCC != 3 {
		t.Fatal("superseded snapshot broke")
	}
	got.Release() // retires version 1
	snap2.Release()
	if st := s.Stats(); st.LiveSnapshots != 1 {
		t.Fatalf("stats after releases: %+v", st)
	}

	if names := s.Names(); len(names) != 1 || names[0] != "demo" {
		t.Fatalf("names = %v", names)
	}
	if err := s.Remove("demo"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire("demo"); err == nil {
		t.Fatal("acquire after remove must fail")
	}
	if _, err := s.Rebuild(context.Background(), "demo", nil); err == nil {
		t.Fatal("rebuild after remove must fail")
	}
	if st := s.Stats(); st.Graphs != 0 || st.LiveSnapshots != 0 {
		t.Fatalf("stats after remove: %+v", st)
	}
}

func TestStoreErrors(t *testing.T) {
	s := fastbcc.NewStore(2)
	if _, err := s.Acquire("nope"); err == nil {
		t.Fatal("acquire of unknown name must fail")
	}
	if err := s.Remove("nope"); err == nil {
		t.Fatal("remove of unknown name must fail")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Load(context.Background(), "demo", storeTestGraph(t), nil); err == nil {
		t.Fatal("load after close must fail")
	}
}

// TestStoreConcurrentServing hammers one Store from reader goroutines
// while writers rebuild and replace the same names: the serving contract
// is that readers always see a complete, queryable snapshot and that
// versions only move forward. Run under -race (the CI race shard does).
func TestStoreConcurrentServing(t *testing.T) {
	s := fastbcc.NewStore(4)
	defer s.Close()
	g := storeTestGraph(t)
	if snap, err := s.Load(context.Background(), "demo", g, nil); err != nil {
		t.Fatal(err)
	} else {
		snap.Release()
	}

	const readers, writers, iters = 6, 2, 60
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var err error
				var snap *fastbcc.Snapshot
				if i%2 == 0 {
					snap, err = s.Rebuild(context.Background(), "demo", &fastbcc.Options{Seed: seed + uint64(i), Threads: 2})
				} else {
					snap, err = s.Load(context.Background(), "demo", g, &fastbcc.Options{Seed: seed + uint64(i)})
				}
				if err != nil {
					errs <- err
					return
				}
				snap.Release()
			}
		}(uint64(w) * 1000)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for i := 0; i < 400; i++ {
				snap, err := s.Acquire("demo")
				if err != nil {
					errs <- err
					return
				}
				if snap.Version < last {
					errs <- errVersionWentBackwards
					snap.Release()
					return
				}
				last = snap.Version
				// The decomposition of this graph is seed-independent.
				ok := snap.Index.Separates(2, 0, 4) &&
					snap.Index.NumCutsOnPath(0, 4) == 2 &&
					snap.Index.TwoEdgeConnected(3, 6) &&
					!snap.Index.TwoEdgeConnected(2, 3) &&
					snap.Result.NumBCC == 3
				if !ok {
					errs <- errWrongAnswer
					snap.Release()
					return
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Once every handle is back, exactly the current version remains live.
	if st := s.Stats(); st.Graphs != 1 || st.LiveSnapshots != 1 {
		t.Fatalf("stats after stress: %+v", st)
	}
}

var (
	errVersionWentBackwards = errString("snapshot version went backwards")
	errWrongAnswer          = errString("snapshot served a wrong answer")
)

type errString string

func (e errString) Error() string { return string(e) }

// TestStoreLoadNilGraphFails: Load with a nil graph is an error that
// touches nothing. Under a new name it leaves no catalog entry; over a
// loaded graph it neither rebuilds nor bumps the version, and the
// pending delta stays queued.
func TestStoreLoadNilGraphFails(t *testing.T) {
	s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{Workers: 2, MutationCoalesce: time.Hour})
	defer s.Close()
	ctx := context.Background()
	if snap, err := s.Load(ctx, "x", nil, nil); err == nil {
		snap.Release()
		t.Error("Load of a nil graph under a new name succeeded")
	}
	if names, graphs := s.Names(), s.Stats().Graphs; len(names) != 0 || graphs != 0 {
		t.Errorf("Load of a nil graph left an entry: Names() = %v, Stats().Graphs = %d", names, graphs)
	}

	snap, err := s.Load(ctx, "g", storeTestGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if _, err := s.ApplyBatch(ctx, "g", nil, []fastbcc.Edge{{U: 4, W: 5}}); err != nil {
		t.Fatal(err)
	}
	if snap, err := s.Load(ctx, "g", nil, nil); err == nil {
		snap.Release()
		t.Error("Load of a nil graph over a loaded one succeeded")
	}
	st, err := s.Status("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || st.PendingDeltas != 1 {
		t.Errorf("after a nil-graph Load: version %d, %d pending deltas; want 1 and 1", st.Version, st.PendingDeltas)
	}
}
