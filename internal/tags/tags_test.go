package tags

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/conn"
	"repro/internal/etour"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// computeTags runs First-CC + Rooting + Tagging on g.
func computeTags(g *graph.Graph, seed uint64) *Tags {
	cc := conn.Connectivity(g, conn.Options{Seed: seed, WantForest: true})
	rt := etour.Root(g.NumVertices(), cc.Forest, cc.Comp)
	return Compute(g, rt)
}

// refLowHigh computes low/high by brute force: for every vertex, scan its
// whole subtree and all incident non-tree edges.
func refLowHigh(g *graph.Graph, t *Tags) (low, high []int32) {
	n := g.NumVertices()
	low = make([]int32, n)
	high = make([]int32, n)
	// children lists
	children := make([][]int32, n)
	for v := 0; v < n; v++ {
		if p := t.Parent[v]; p != -1 {
			children[p] = append(children[p], int32(v))
		}
	}
	var dfs func(v int32) (int32, int32)
	dfs = func(v int32) (int32, int32) {
		lo, hi := t.First[v], t.First[v]
		for _, w := range g.Neighbors(v) {
			if w == v || t.Parent[w] == v || t.Parent[v] == w {
				continue
			}
			if t.First[w] < lo {
				lo = t.First[w]
			}
			if t.First[w] > hi {
				hi = t.First[w]
			}
		}
		for _, c := range children[v] {
			cl, ch := dfs(c)
			if cl < lo {
				lo = cl
			}
			if ch > hi {
				hi = ch
			}
		}
		low[v], high[v] = lo, hi
		return lo, hi
	}
	for v := 0; v < n; v++ {
		if t.Parent[v] == -1 {
			dfs(int32(v))
		}
	}
	return low, high
}

func assertTagsMatchRef(t *testing.T, g *graph.Graph, seed uint64) {
	t.Helper()
	tg := computeTags(g, seed)
	low, high := refLowHigh(g, tg)
	for v := 0; v < g.NumVertices(); v++ {
		if tg.Low[v] != low[v] {
			t.Fatalf("low[%d] = %d, want %d", v, tg.Low[v], low[v])
		}
		if tg.High[v] != high[v] {
			t.Fatalf("high[%d] = %d, want %d", v, tg.High[v], high[v])
		}
	}
}

func TestLowHighAgainstBruteForce(t *testing.T) {
	cases := []*graph.Graph{
		gen.Cycle(30),
		gen.Chain(25),
		gen.Clique(8),
		gen.Grid2D(5, 6, true),
		gen.Star(10),
		gen.Barbell(4, 2),
		gen.ER(60, 120, 3),
		gen.Disjoint(gen.Cycle(8), gen.Chain(5), gen.Clique(4)),
	}
	for i, g := range cases {
		t.Run(string(rune('a'+i)), func(t *testing.T) {
			assertTagsMatchRef(t, g, uint64(i))
		})
	}
}

func TestLowHighQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := rng.Intn(3 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		tg := computeTags(g, uint64(seed))
		low, high := refLowHigh(g, tg)
		for v := 0; v < n; v++ {
			if tg.Low[v] != low[v] || tg.High[v] != high[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBackPredicateIsAncestorTest(t *testing.T) {
	g := gen.RandomTree(100, 5)
	tg := computeTags(g, 1)
	anc := func(u, v int32) bool {
		x := v
		for x != -1 {
			if x == u {
				return true
			}
			x = tg.Parent[x]
		}
		return false
	}
	for u := int32(0); u < 100; u += 3 {
		for v := int32(0); v < 100; v += 7 {
			if tg.Back(u, v) != anc(u, v) {
				t.Fatalf("Back(%d,%d) = %v, ancestry = %v", u, v, tg.Back(u, v), anc(u, v))
			}
		}
	}
}

func TestFenceOnBridgeAndCycle(t *testing.T) {
	// Chain: every tree edge is a fence edge. Cycle: no tree edge is.
	chain := gen.Chain(20)
	tg := computeTags(chain, 2)
	for v := int32(0); v < 20; v++ {
		if p := tg.Parent[v]; p != -1 {
			if !tg.Fence(p, v) {
				t.Fatalf("chain edge (%d,%d) should be a fence edge", p, v)
			}
			if tg.InSkeleton(p, v) {
				t.Fatalf("chain edge (%d,%d) must not be in skeleton", p, v)
			}
		}
	}
	cyc := gen.Cycle(20)
	tg = computeTags(cyc, 3)
	for v := int32(0); v < 20; v++ {
		if p := tg.Parent[v]; p != -1 && tg.Parent[p] != -1 {
			// Non-root tree edges of a cycle are plain.
			if tg.Fence(p, v) {
				t.Fatalf("cycle edge (%d,%d) should be plain", p, v)
			}
		}
	}
}

func TestRootEdgesAlwaysFenced(t *testing.T) {
	// Every tree edge incident to a root is a fence edge (the root is
	// always a singleton in the skeleton).
	g := gen.ER(80, 200, 9)
	tg := computeTags(g, 4)
	for v := int32(0); v < g.N; v++ {
		p := tg.Parent[v]
		if p == -1 || tg.Parent[p] != -1 {
			continue
		}
		_ = p
	}
	// Root detection: parent == -1.
	for v := int32(0); v < g.N; v++ {
		if tg.Parent[v] != -1 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if tg.Parent[w] == v {
				if tg.InSkeleton(v, w) {
					t.Fatalf("root edge (%d,%d) in skeleton", v, w)
				}
			}
		}
	}
}

func TestIsTreeEdge(t *testing.T) {
	g := gen.Chain(5)
	tg := computeTags(g, 5)
	for v := int32(0); v < 4; v++ {
		if !tg.IsTreeEdge(v, v+1) || !tg.IsTreeEdge(v+1, v) {
			t.Fatalf("chain edge (%d,%d) not recognized as tree edge", v, v+1)
		}
	}
	if tg.IsTreeEdge(0, 4) {
		t.Fatal("non-edge flagged as tree edge")
	}
}

func TestAncestorSelf(t *testing.T) {
	g := gen.RandomTree(30, 6)
	tg := computeTags(g, 6)
	for v := int32(0); v < 30; v++ {
		if !tg.Ancestor(v, v) {
			t.Fatalf("Ancestor(%d,%d) must be true", v, v)
		}
	}
}

// TestComputeInDirtyArena requires Low and High to equal refLowHigh at 1,
// 2 and 4 workers when every run draws its buffers from one arena that
// earlier runs on other graphs left dirty: the arena never zeroes a
// buffer, so a w1/w2 slot the fold forgets to write shows up. The inputs
// are a 20,000-leaf star whose leaves also form a ring, RMAT-13-8 (hubs
// beside isolated vertices), and a small graph of isolated vertices,
// self-loops and doubled chain edges, which are parallel tree edges.
func TestComputeInDirtyArena(t *testing.T) {
	star := gen.Star(20001).Edges()
	for v := int32(1); v <= 20000; v++ {
		star = append(star, graph.Edge{U: v, W: v%20000 + 1})
	}
	var odd []graph.Edge
	for v := int32(0); v < 20; v++ {
		odd = append(odd, graph.Edge{U: v, W: (v + 1) % 20}) // a cycle
	}
	for v := int32(30); v < 39; v++ {
		odd = append(odd, graph.Edge{U: v, W: v + 1}, graph.Edge{U: v, W: v + 1})
	}
	odd = append(odd, graph.Edge{U: 3, W: 3}, graph.Edge{U: 25, W: 25}, graph.Edge{U: 33, W: 33}, graph.Edge{U: 5, W: 6})
	graphs := []*graph.Graph{
		graph.MustFromEdges(20001, star),
		gen.RMAT(13, 8, 11),
		graph.MustFromEdges(50, odd),
	}
	sc := graph.NewScratch()
	for round := 0; round < 2; round++ {
		for i, g := range graphs {
			for _, p := range []int{1, 2, 4} {
				e := parallel.NewExec(p)
				cc := conn.Connectivity(g, conn.Options{Seed: uint64(round), WantForest: true, Scratch: sc, Exec: e})
				rt := etour.RootIn(e, g.NumVertices(), cc.Forest, cc.Comp, sc)
				tg := ComputeIn(e, g, rt, sc)
				low, high := refLowHigh(g, tg)
				if !slices.Equal(tg.Low, low) || !slices.Equal(tg.High, high) {
					t.Fatalf("round %d, graph %d, %d workers: Low/High differ from refLowHigh", round, i, p)
				}
				sc.PutInt32(cc.Comp, rt.Tour, rt.First, rt.Last, tg.Low, tg.High)
				sc.PutEdges(cc.Forest)
				e.Close()
			}
		}
	}
}
