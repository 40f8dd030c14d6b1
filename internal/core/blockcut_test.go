package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func TestBlockCutTreeChain(t *testing.T) {
	// Chain of 5: 4 blocks, 3 cuts, path-shaped tree.
	g := gen.Chain(5)
	res := BCC(g, Options{Seed: 1})
	bct := res.BlockCutTree()
	if bct.NumBlocks != 4 || len(bct.Cuts) != 3 {
		t.Fatalf("blocks=%d cuts=%d", bct.NumBlocks, len(bct.Cuts))
	}
	if !bct.IsTree() {
		t.Fatal("block-cut structure is not a tree")
	}
	// Each cut joins exactly 2 blocks; end blocks have degree 1.
	deg := treeDegrees(bct)
	for i := 0; i < len(bct.Cuts); i++ {
		if d := deg[bct.NumBlocks+i]; d != 2 {
			t.Fatalf("cut %d degree %d", i, d)
		}
	}
}

// treeDegrees returns the number of tree neighbors of every node: its
// parent, if any, plus its children.
func treeDegrees(bct *BlockCutTree) []int {
	deg := make([]int, bct.NumNodes())
	for x, p := range bct.Parent {
		if p != -1 {
			deg[x]++
			deg[p]++
		}
	}
	return deg
}

func TestBlockCutTreeStar(t *testing.T) {
	g := gen.Star(6)
	res := BCC(g, Options{Seed: 2})
	bct := res.BlockCutTree()
	if bct.NumBlocks != 5 || len(bct.Cuts) != 1 {
		t.Fatalf("blocks=%d cuts=%d", bct.NumBlocks, len(bct.Cuts))
	}
	if d := treeDegrees(bct)[bct.NumBlocks]; d != 5 {
		t.Fatalf("center degree %d", d)
	}
	if !bct.IsTree() {
		t.Fatal("not a tree")
	}
}

func TestBlockCutTreeBiconnected(t *testing.T) {
	g := gen.Cycle(10)
	res := BCC(g, Options{Seed: 3})
	bct := res.BlockCutTree()
	if bct.NumBlocks != 1 || len(bct.Cuts) != 0 {
		t.Fatalf("cycle: blocks=%d cuts=%d", bct.NumBlocks, len(bct.Cuts))
	}
	if !bct.IsTree() {
		t.Fatal("single node must be a tree")
	}
}

func TestBlockCutTreeCliqueChain(t *testing.T) {
	g := gen.CliqueChain(4, 4)
	res := BCC(g, Options{Seed: 4})
	bct := res.BlockCutTree()
	if bct.NumBlocks != 4 || len(bct.Cuts) != 3 {
		t.Fatalf("blocks=%d cuts=%d", bct.NumBlocks, len(bct.Cuts))
	}
	if !bct.IsTree() {
		t.Fatal("not a tree")
	}
}

func TestBlockCutTreeDisconnected(t *testing.T) {
	g := gen.Disjoint(gen.Chain(4), gen.Cycle(5), gen.Star(4))
	res := BCC(g, Options{Seed: 5})
	bct := res.BlockCutTree()
	// chain: 3 blocks + 2 cuts; cycle: 1 block; star: 3 blocks + 1 cut
	if bct.NumBlocks != 7 || len(bct.Cuts) != 3 {
		t.Fatalf("blocks=%d cuts=%d", bct.NumBlocks, len(bct.Cuts))
	}
	if !bct.IsTree() {
		t.Fatal("block-cut forest invariant violated")
	}
}

func TestBlockCutTreeRandomForestInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(100)
		m := rng.Intn(3 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		res := BCC(g, Options{Seed: uint64(trial)})
		bct := res.BlockCutTree()
		if !bct.IsTree() {
			t.Fatalf("trial %d: block-cut structure is not a forest", trial)
		}
		// Every cut node has degree >= 2 (it joins at least two blocks).
		deg := treeDegrees(bct)
		for i := range bct.Cuts {
			if d := deg[bct.NumBlocks+i]; d < 2 {
				t.Fatalf("trial %d: cut %d has degree %d", trial, i, d)
			}
		}
		if bct.NumBlocks != res.NumBCC {
			t.Fatalf("trial %d: blocks %d != NumBCC %d", trial, bct.NumBlocks, res.NumBCC)
		}
	}
}

// TestBlockCutTreeIsTreeRejects: IsTree refuses parents that are out of
// range, that join two nodes of the same kind, or that close a cycle.
func TestBlockCutTreeIsTreeRejects(t *testing.T) {
	bct := BCC(gen.CliqueChain(4, 4), Options{Seed: 8}).BlockCutTree()
	if !bct.IsTree() {
		t.Fatal("valid tree rejected")
	}
	b := -1 // a block whose parent is a cut node
	for x := 0; x < bct.NumBlocks; x++ {
		if bct.Parent[x] != -1 {
			b = x
			break
		}
	}
	if b == -1 {
		t.Fatal("no block below a cut node")
	}
	c := bct.Parent[b]
	for name, corrupt := range map[string]func(par []int32){
		"out of range": func(par []int32) { par[b] = int32(len(par)) },
		"same kind":    func(par []int32) { par[c] = int32(len(par) - 1) },
		"cycle":        func(par []int32) { par[c] = int32(b) },
	} {
		bad := *bct
		bad.Parent = append([]int32(nil), bct.Parent...)
		corrupt(bad.Parent)
		if bad.IsTree() {
			t.Errorf("%s: IsTree accepted %v", name, bad.Parent)
		}
	}
}

func TestBlockCutTreeDenseFieldsAndCaching(t *testing.T) {
	g := gen.CliqueChain(4, 4)
	res := BCC(g, Options{Seed: 7})
	bct := res.BlockCutTree()
	if res.BlockCutTree() != bct {
		t.Fatal("BlockCutTree is not cached on a constructor-built Result")
	}
	ap := res.ArticulationPoints()
	if &ap[0] != &res.ArticulationPoints()[0] {
		t.Fatal("ArticulationPoints is not cached on a constructor-built Result")
	}
	// CutNode is the dense inverse of Cuts; all other vertices map to -1.
	want := make([]int32, g.NumVertices())
	for v := range want {
		want[v] = -1
	}
	for i, v := range bct.Cuts {
		want[v] = int32(bct.NumBlocks + i)
	}
	for v := range want {
		if bct.CutNode[v] != want[v] {
			t.Fatalf("CutNode[%d] = %d, want %d", v, bct.CutNode[v], want[v])
		}
	}
	// Every edge joins a block node and a cut node.
	for x, w := range bct.Parent {
		if w != -1 && (x < bct.NumBlocks) == (int(w) < bct.NumBlocks) {
			t.Fatalf("edge (%d,%d) does not join a block to a cut", x, w)
		}
	}
	// A caller-assembled Result (no caches) still answers, fresh per call.
	bare := &Result{Label: res.Label, Head: res.Head, Parent: res.Parent,
		NumLabels: res.NumLabels, NumBCC: res.NumBCC}
	if got := bare.BlockCutTree(); got.NumBlocks != bct.NumBlocks || len(got.Cuts) != len(bct.Cuts) {
		t.Fatalf("uncached BlockCutTree: blocks=%d cuts=%d, want %d/%d",
			got.NumBlocks, len(got.Cuts), bct.NumBlocks, len(bct.Cuts))
	}
}

// TestAllocGuardBlockCutTree bounds what building the block-cut tree
// allocates beyond its own arrays (CutNode, BlockOf and one parent per
// node). The parent passes write straight into the tree, so the build
// reads 15-22.2 allocations at GOMAXPROCS 1-8 and 1.03x the arrays'
// bytes; the bounds are the worst count plus 10% and 1.25x. Packing the
// tree's edges into a list and building a CSR over them costs 52-73
// allocations and about 3x the bytes, and cannot pass.
func TestAllocGuardBlockCutTree(t *testing.T) {
	g := gen.RMAT(14, 8, 0xBC)
	r := BCC(g, Options{Seed: 7})
	cuts := r.ArticulationPoints()
	e := parallel.NewExec(runtime.GOMAXPROCS(0))
	defer e.Close()
	var bct *BlockCutTree
	build := func() { bct = buildBlockCutTree(e, r, cuts) }
	build()
	var before, after runtime.MemStats
	const runs = 5
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	own := 4 * float64(len(bct.CutNode)+len(bct.BlockOf)+bct.NumNodes())
	t.Logf("block-cut tree build: %.1f allocs, %.2fx its arrays' %.0f bytes", allocs, bytes/own, own)
	if allocs > 24.4 || bytes > 1.25*own {
		t.Fatalf("block-cut tree build: %.1f allocs, %.2fx its arrays' %.0f bytes; want <= 24.4 and <= 1.25x",
			allocs, bytes/own, own)
	}
}
