package bctree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func build(t *testing.T, g *graph.Graph, seed uint64) *Index {
	t.Helper()
	return New(g, core.BCC(g, core.Options{Seed: seed}))
}

func TestPathGraph(t *testing.T) {
	// 0-1-2-3-4: every internal vertex is a cut, every edge a bridge.
	g := gen.Chain(5)
	x := build(t, g, 1)
	if x.NumBlocks() != 4 || x.NumCutVertices() != 3 || x.NumBridges() != 4 || x.NumTwoECC() != 5 {
		t.Fatalf("blocks=%d cuts=%d bridges=%d 2ecc=%d",
			x.NumBlocks(), x.NumCutVertices(), x.NumBridges(), x.NumTwoECC())
	}
	if !x.Connected(0, 4) || x.Biconnected(0, 4) || x.TwoEdgeConnected(0, 4) {
		t.Fatal("end-to-end classification wrong")
	}
	if !x.Biconnected(0, 1) {
		t.Fatal("bridge endpoints share a block")
	}
	if got := x.CutsOnPath(0, 4); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("CutsOnPath(0,4) = %v", got)
	}
	if got := x.NumCutsOnPath(0, 4); got != 3 {
		t.Fatalf("NumCutsOnPath(0,4) = %d", got)
	}
	// Endpoints are excluded even when they are cuts themselves.
	if got := x.CutsOnPath(1, 4); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("CutsOnPath(1,4) = %v", got)
	}
	if got := x.NumCutsOnPath(1, 4); got != 2 {
		t.Fatalf("NumCutsOnPath(1,4) = %d", got)
	}
	if got := x.NumCutsOnPath(1, 2); got != 0 {
		t.Fatalf("NumCutsOnPath(1,2) = %d (adjacent pair)", got)
	}
	if !x.Separates(2, 0, 4) || x.Separates(2, 0, 1) || x.Separates(0, 1, 4) || x.Separates(1, 1, 4) {
		t.Fatal("Separates wrong on the path")
	}
	if got := x.NumBridgesOnPath(0, 4); got != 4 {
		t.Fatalf("NumBridgesOnPath(0,4) = %d", got)
	}
	br := x.BridgesOnPath(1, 3)
	if len(br) != 2 || br[0] != (graph.Edge{U: 1, W: 2}) || br[1] != (graph.Edge{U: 2, W: 3}) {
		t.Fatalf("BridgesOnPath(1,3) = %v", br)
	}
}

func TestCycleGraph(t *testing.T) {
	g := gen.Cycle(8)
	x := build(t, g, 2)
	if x.NumBlocks() != 1 || x.NumCutVertices() != 0 || x.NumBridges() != 0 || x.NumTwoECC() != 1 {
		t.Fatalf("cycle: blocks=%d cuts=%d bridges=%d 2ecc=%d",
			x.NumBlocks(), x.NumCutVertices(), x.NumBridges(), x.NumTwoECC())
	}
	if !x.Biconnected(0, 5) || !x.TwoEdgeConnected(0, 5) || x.NumCutsOnPath(0, 5) != 0 {
		t.Fatal("cycle pair misclassified")
	}
	if x.Separates(3, 0, 5) {
		t.Fatal("no vertex separates a cycle")
	}
}

func TestBarbell(t *testing.T) {
	// Triangle 0-1-2, bridge 2-3, square 3-4-5-6.
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0},
		{U: 2, W: 3},
		{U: 3, W: 4}, {U: 4, W: 5}, {U: 5, W: 6}, {U: 6, W: 3},
	})
	x := build(t, g, 3)
	if x.NumBlocks() != 3 || x.NumCutVertices() != 2 || x.NumBridges() != 1 || x.NumTwoECC() != 2 {
		t.Fatalf("barbell: blocks=%d cuts=%d bridges=%d 2ecc=%d",
			x.NumBlocks(), x.NumCutVertices(), x.NumBridges(), x.NumTwoECC())
	}
	if got := x.CutsOnPath(0, 5); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("CutsOnPath(0,5) = %v", got)
	}
	if br := x.BridgesOnPath(1, 6); len(br) != 1 || br[0] != (graph.Edge{U: 2, W: 3}) {
		t.Fatalf("BridgesOnPath(1,6) = %v", br)
	}
	if !x.TwoEdgeConnected(3, 5) || x.TwoEdgeConnected(2, 3) {
		t.Fatal("2ECC sides wrong")
	}
	if !x.Separates(2, 0, 3) || !x.Separates(3, 2, 4) || x.Separates(4, 3, 5) {
		t.Fatal("Separates wrong on the barbell")
	}
}

func TestDisconnectedAndIsolated(t *testing.T) {
	// A triangle, an isolated vertex, and a 2-path.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0},
		{U: 4, W: 5},
	})
	x := build(t, g, 4)
	if x.Connected(0, 3) || x.Connected(0, 4) || !x.Connected(4, 5) || !x.Connected(3, 3) {
		t.Fatal("component classification wrong")
	}
	if x.Biconnected(0, 4) || x.TwoEdgeConnected(0, 3) || x.NumCutsOnPath(0, 4) != 0 {
		t.Fatal("cross-component queries must be negative")
	}
	if x.Separates(1, 0, 4) {
		t.Fatal("nothing separates an already-disconnected pair")
	}
	if x.BridgesOnPath(0, 4) != nil || x.CutsOnPath(0, 4) != nil {
		t.Fatal("cross-component enumerations must be empty")
	}
}

func TestMultigraph(t *testing.T) {
	// 0=1-2 with the 0-1 edge doubled and a self-loop on 2: the doubled
	// edge is not a bridge, so 0,1 are 2-edge-connected; 1-2 is a bridge.
	g := graph.MustFromEdges(3, []graph.Edge{
		{U: 0, W: 1}, {U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 2},
	})
	x := build(t, g, 5)
	if !x.TwoEdgeConnected(0, 1) || x.TwoEdgeConnected(1, 2) {
		t.Fatal("parallel edge must not be a bridge")
	}
	if x.NumBridges() != 1 || x.NumBridgesOnPath(0, 2) != 1 {
		t.Fatalf("bridges=%d onPath=%d", x.NumBridges(), x.NumBridgesOnPath(0, 2))
	}
	if !x.Separates(1, 0, 2) {
		t.Fatal("1 separates 0 from 2")
	}
}

func TestEmptyAndEdgeless(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := graph.MustFromEdges(n, nil)
		x := build(t, g, 6)
		if x.NumBlocks() != 0 || x.NumBridges() != 0 || x.NumCutVertices() != 0 {
			t.Fatalf("n=%d: edgeless graph has no blocks/cuts/bridges", n)
		}
		if n >= 2 && (x.Connected(0, 1) || x.NumCutsOnPath(0, 1) != 0) {
			t.Fatalf("n=%d: isolated vertices are not connected", n)
		}
	}
}

// TestScalarQueriesDoNotAllocate is the acceptance criterion: every
// non-enumerating query must perform zero per-query allocations.
func TestScalarQueriesDoNotAllocate(t *testing.T) {
	g := gen.CliqueChain(6, 5)
	x := build(t, g, 7)
	n := int32(g.NumVertices())
	checks := map[string]func(){
		"Connected":        func() { x.Connected(0, n-1) },
		"Biconnected":      func() { x.Biconnected(0, n-1) },
		"TwoEdgeConnected": func() { x.TwoEdgeConnected(0, n-1) },
		"Separates":        func() { x.Separates(n/2, 0, n-1) },
		"NumCutsOnPath":    func() { x.NumCutsOnPath(0, n-1) },
		"NumBridgesOnPath": func() { x.NumBridgesOnPath(0, n-1) },
		"IsCutVertex":      func() { x.IsCutVertex(n / 2) },
	}
	for name, f := range checks {
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %.1f per query, want 0", name, avg)
		}
	}
}
