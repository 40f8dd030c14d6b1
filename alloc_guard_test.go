package fastbcc_test

import (
	"context"
	"runtime"
	"testing"

	fastbcc "repro"
)

// The allocation-regression guard. Timing on the CI container is ±5–8%
// noisy, but allocation counters are exact, so the hot paths' allocs/op
// are asserted as hard upper bounds: a change that reintroduces per-round
// buffer churn, drops an arena Put, or re-eagers the topology caches
// fails here deterministically instead of hiding inside timing noise.
//
// The bounds are deliberately loose (current steady-state numbers are
// roughly half of each bound) so scheduling jitter — pool refills,
// sync.Pool misses — never flakes the test, while order-of-magnitude
// regressions (the scratch-backed pipeline burned ~4,000 allocs/op
// before the PR 5 sweep) cannot pass.

// guardGraph returns the shared workload: a power-law graph big enough
// that every parallel stage engages, small enough for the test budget.
func guardGraph(tb testing.TB) *fastbcc.Graph {
	tb.Helper()
	return fastbcc.GenerateRMAT(14, 8, 0xBC)
}

func TestAllocGuardBCCScratch(t *testing.T) {
	g := guardGraph(t)
	r := fastbcc.NewRunner(0)
	defer r.Close()
	opts := &fastbcc.Options{Seed: 7}
	r.Run(g, opts) // warm the Runner's pooled arena
	r.Run(g, opts)
	avg := testing.AllocsPerRun(5, func() { r.Run(g, opts) })
	t.Logf("scratch-backed Runner.Run: %.1f allocs/op", avg)
	if avg > 400 {
		t.Fatalf("scratch-backed Runner.Run: %.1f allocs/op, want <= 400", avg)
	}
}

func TestAllocGuardIndexBuild(t *testing.T) {
	g := guardGraph(t)
	res := fastbcc.BCC(g, &fastbcc.Options{Seed: 7})
	fastbcc.NewIndex(g, res) // one-time lazy topology precompute
	allocs, bytes := allocsAndBytesPerRun(5, func() { fastbcc.NewIndex(g, res) })
	mib := bytes / (1 << 20)
	t.Logf("index build: %.1f allocs/op, %.2f MiB/op", allocs, mib)
	// Both forests are toured from the parents the decomposition fixes,
	// and the bridges come from the 2ECC pass's own bridge test, so no
	// edge list is built. The bounds are the worst reading over
	// GOMAXPROCS 1-8 (234.4 allocs, 1.38 MiB) plus 10%. Rebuilding the
	// forests' edge lists and recovering their trees by union-find costs
	// about 266 allocs and 1.69 MiB here, and fails both.
	if allocs > 258 || mib > 1.52 {
		t.Fatalf("index build: %.1f allocs/op and %.2f MiB/op, want <= 258 and <= 1.52", allocs, mib)
	}
}

func TestAllocGuardStoreHop(t *testing.T) {
	g := guardGraph(t)
	st := fastbcc.NewStore(0)
	defer st.Close()
	// Metrics are always on, so this guard proves the *instrumented*
	// refcount hop stays allocation-free.
	if st.Metrics() == nil {
		t.Fatal("guard store is not instrumented")
	}
	snap, err := st.Load(context.Background(), "guard", g, &fastbcc.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	avg := testing.AllocsPerRun(200, func() {
		s, err := st.Acquire("guard")
		if err != nil {
			t.Fatal(err)
		}
		if s.Index.Separates(2, 0, 4) {
			_ = s
		}
		s.Release()
	})
	// The whole serving hop is allocation-free; < 1 tolerates a stray
	// runtime allocation landing inside the measured window.
	if avg >= 1 {
		t.Fatalf("store acquire→query→release: %.2f allocs/op, want 0", avg)
	}
}

func TestAllocGuardHandleHop(t *testing.T) {
	g := guardGraph(t)
	st := fastbcc.NewStore(0)
	defer st.Close()
	snap, err := st.Load(context.Background(), "guard", g, &fastbcc.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	h := st.NewHandle()
	defer h.Close()
	avg := testing.AllocsPerRun(200, func() {
		s, err := h.Acquire("guard")
		if err != nil {
			t.Fatal(err)
		}
		if s.Index.Separates(2, 0, 4) {
			_ = s
		}
		h.Release()
	})
	// The epoch fast path must match the refcount hop's zero allocations
	// while also avoiding its shared-cacheline CAS.
	if avg >= 1 {
		t.Fatalf("handle acquire→query→release: %.2f allocs/op, want 0", avg)
	}
}

func TestAllocGuardMutationFastPath(t *testing.T) {
	g := guardGraph(t)
	st := fastbcc.NewStore(0)
	defer st.Close()
	snap, err := st.Load(context.Background(), "guard", g, &fastbcc.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Pick an edge inside a 2ECC block: parallel edges there stay in the
	// fast class forever, so every measured ApplyBatch takes the same
	// path.
	var u, w int32 = -1, -1
	idx := snap.Index
	n := int32(g.NumVertices())
	for a := int32(0); a < n && u < 0; a++ {
		for b := a + 1; b < a+64 && b < n; b++ {
			if idx.Biconnected(a, b) && idx.TwoEdgeConnected(a, b) {
				u, w = a, b
				break
			}
		}
	}
	snap.Release()
	if u < 0 {
		t.Fatal("no 2ECC pair in the guard graph")
	}
	ctx := context.Background()
	adds := []fastbcc.Edge{{U: u, W: w}}
	st.ApplyBatch(ctx, "guard", adds, nil) // warm the per-graph gauges
	avg := testing.AllocsPerRun(100, func() {
		res, err := st.ApplyBatch(ctx, "guard", adds, nil)
		if err != nil || res.Fast != 1 || res.Queued != 0 {
			t.Fatalf("fast add degraded: %+v %v", res, err)
		}
	})
	// The fast path publishes a snapshot sharing the Result and Index —
	// no rebuild, no index derivation. The bound covers the snapshot
	// struct, the growing overlay copy, and the epoch retire bookkeeping;
	// an accidental rebuild or index rebuild costs thousands and cannot
	// pass.
	if avg > 32 {
		t.Fatalf("fast-path ApplyBatch: %.1f allocs/op, want <= 32", avg)
	}
}

func TestAllocGuardMutationFastPathDurable(t *testing.T) {
	g := guardGraph(t)
	st := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		DataDir: t.TempDir(),
	})
	defer st.Close()
	snap, err := st.Load(context.Background(), "guard", g, &fastbcc.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var u, w int32 = -1, -1
	idx := snap.Index
	n := int32(g.NumVertices())
	for a := int32(0); a < n && u < 0; a++ {
		for b := a + 1; b < a+64 && b < n; b++ {
			if idx.Biconnected(a, b) && idx.TwoEdgeConnected(a, b) {
				u, w = a, b
				break
			}
		}
	}
	snap.Release()
	if u < 0 {
		t.Fatal("no 2ECC pair in the guard graph")
	}
	ctx := context.Background()
	adds := []fastbcc.Edge{{U: u, W: w}}
	st.ApplyBatch(ctx, "guard", adds, nil) // warm gauges, journal, edge scratch
	avg := testing.AllocsPerRun(100, func() {
		res, err := st.ApplyBatch(ctx, "guard", adds, nil)
		if err != nil || res.Fast != 1 || res.Queued != 0 {
			t.Fatalf("fast add degraded: %+v %v", res, err)
		}
	})
	// Same bound as the non-durable guard: the WAL append reuses the
	// entry's edge scratch and the journal's record buffer, so durability
	// must not add steady-state allocations to the acknowledgment path.
	if avg > 32 {
		t.Fatalf("durable fast-path ApplyBatch: %.1f allocs/op, want <= 32", avg)
	}
	if st.Stats().WalAppends < 100 {
		t.Fatal("guard ran without journaling — the bound proved nothing")
	}
}

func TestAllocGuardQueryBatch(t *testing.T) {
	g := guardGraph(t)
	st := fastbcc.NewStore(0)
	defer st.Close()
	// Metrics are always on: the batch guard covers the recordBatch
	// counter-bank flush too.
	if st.Metrics() == nil {
		t.Fatal("guard store is not instrumented")
	}
	snap, err := st.Load(context.Background(), "guard", g, &fastbcc.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	h := st.NewHandle()
	defer h.Close()
	qs := make([]fastbcc.Query, 256)
	for i := range qs {
		op := fastbcc.OpConnected + fastbcc.QueryOp(i%6)
		qs[i] = fastbcc.Query{Op: op, U: int32(i % 100), V: int32((i * 7) % 100), X: int32((i * 3) % 100)}
	}
	dst := make([]fastbcc.Answer, 0, len(qs))
	ctx := context.Background()
	avg := testing.AllocsPerRun(200, func() {
		out, _, err := handleBatch(ctx, h, "guard", qs, dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
	})
	// A whole batch — pin, resolve, 256 queries, unpin — reusing the
	// caller's answer slice allocates nothing.
	if avg >= 1 {
		t.Fatalf("256-query batch with recycled dst: %.2f allocs/op, want 0", avg)
	}
}

// allocsAndBytesPerRun is testing.AllocsPerRun that also reports the
// bytes allocated per run.
func allocsAndBytesPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestAllocGuardMaterialize(t *testing.T) {
	g := guardGraph(t)
	del := g.Edges()[g.NumEdges()/2]
	var out *fastbcc.Graph
	allocs, bytes := allocsAndBytesPerRun(5, func() {
		var err error
		if out, err = fastbcc.MaterializeDeletion(g, del); err != nil {
			t.Fatal(err)
		}
	})
	if out.NumEdges() != g.NumEdges()-1 {
		t.Fatalf("materialized %d edges, want %d", out.NumEdges(), g.NumEdges()-1)
	}
	// A delta flush patches the CSR: beyond the output arrays it touches
	// only the changed edges, so it allocates about the output's size in a
	// handful of allocations. Counting all m edges in a map and rebuilding
	// from the edge list costs over 7x in ~550 allocations and cannot pass.
	csr := 4 * float64(len(out.Offsets)+len(out.Adj))
	t.Logf("materialize with one deletion: %.1f allocs, %.2fx the output CSR", allocs, bytes/csr)
	if allocs > 32 || bytes > 1.25*csr {
		t.Fatalf("materialize with one deletion: %.1f allocs, %.2fx the output CSR's %.0f bytes; want <= 32 and <= 1.25x",
			allocs, bytes/csr, csr)
	}
}

func TestAllocGuardFromEdges(t *testing.T) {
	g := guardGraph(t)
	edges := g.Edges()
	var out *fastbcc.Graph
	allocs, bytes := allocsAndBytesPerRun(5, func() {
		var err error
		if out, err = fastbcc.NewGraphFromEdges(g.NumVertices(), edges); err != nil {
			t.Fatal(err)
		}
	})
	// The build allocates the output CSR, one scratch copy of the arcs
	// (the scatter the transpose reads) and one n-sized cursor row per
	// worker, at most 1+m/n = 9 rows here: 2.01x the output's bytes at
	// GOMAXPROCS=1 and 2.42x at 8. One more m-sized copy adds ~0.94x and
	// cannot pass. The alloc bound is the worst count measured over
	// GOMAXPROCS 1-8 (32.6, at 2) plus 10%.
	csr := 4 * float64(len(out.Offsets)+len(out.Adj))
	t.Logf("CSR build: %.1f allocs, %.2fx the output CSR", allocs, bytes/csr)
	if allocs > 36 || bytes > 2.5*csr {
		t.Fatalf("CSR build: %.1f allocs, %.2fx the output CSR's %.0f bytes; want <= 36 and <= 2.5x",
			allocs, bytes/csr, csr)
	}
}
