package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
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
	for i := 0; i < len(bct.Cuts); i++ {
		if d := bct.Degree(int32(bct.NumBlocks + i)); d != 2 {
			t.Fatalf("cut %d degree %d", i, d)
		}
	}
}

func TestBlockCutTreeStar(t *testing.T) {
	g := gen.Star(6)
	res := BCC(g, Options{Seed: 2})
	bct := res.BlockCutTree()
	if bct.NumBlocks != 5 || len(bct.Cuts) != 1 {
		t.Fatalf("blocks=%d cuts=%d", bct.NumBlocks, len(bct.Cuts))
	}
	if bct.Degree(int32(bct.NumBlocks)) != 5 {
		t.Fatalf("center degree %d", bct.Degree(int32(bct.NumBlocks)))
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
		for i := range bct.Cuts {
			if bct.Degree(int32(bct.NumBlocks+i)) < 2 {
				t.Fatalf("trial %d: cut %d has degree %d", trial, i,
					bct.Degree(int32(bct.NumBlocks+i)))
			}
		}
		if bct.NumBlocks != res.NumBCC {
			t.Fatalf("trial %d: blocks %d != NumBCC %d", trial, bct.NumBlocks, res.NumBCC)
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
	for x := 0; x < bct.NumNodes(); x++ {
		for _, w := range bct.Neighbors(int32(x)) {
			if (x < bct.NumBlocks) == (int(w) < bct.NumBlocks) {
				t.Fatalf("edge (%d,%d) does not join a block to a cut", x, w)
			}
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
