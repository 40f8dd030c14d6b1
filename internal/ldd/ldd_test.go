package ldd

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/uf"
)

// validate checks the structural invariants every decomposition must have:
// full coverage, parent edges real and intra-cluster, clusters connected.
func validate(t *testing.T, g *graph.Graph, r *Result) {
	t.Helper()
	n := g.NumVertices()
	if len(r.Center) != n || len(r.Parent) != n {
		t.Fatalf("result sizes wrong: %d %d", len(r.Center), len(r.Parent))
	}
	for v := 0; v < n; v++ {
		c := r.Center[v]
		if c < 0 || int(c) >= n {
			t.Fatalf("vertex %d unassigned (center %d)", v, c)
		}
		if r.Center[c] != c {
			t.Fatalf("center of %d is %d, but %d is not its own center", v, c, c)
		}
		p := r.Parent[v]
		if int32(v) == c {
			if p != -1 {
				t.Fatalf("center %d has parent %d", v, p)
			}
			continue
		}
		if p < 0 || int(p) >= n {
			t.Fatalf("non-center %d has invalid parent %d", v, p)
		}
		if r.Center[p] != c {
			t.Fatalf("parent %d of %d in different cluster", p, v)
		}
		if !g.HasEdge(int32(v), p) {
			t.Fatalf("parent edge (%d,%d) not in graph", v, p)
		}
	}
	// Parent chains reach the center (no cycles).
	for v := 0; v < n; v++ {
		x := int32(v)
		steps := 0
		for r.Parent[x] != -1 {
			x = r.Parent[x]
			steps++
			if steps > n {
				t.Fatalf("parent cycle starting at %d", v)
			}
		}
		if x != r.Center[v] {
			t.Fatalf("parent chain of %d ends at %d, center is %d", v, x, r.Center[v])
		}
	}
}

func TestDecomposeGrid(t *testing.T) {
	g := gen.Grid2D(40, 40, true)
	r := Decompose(g, Options{Seed: 1})
	validate(t, g, r)
}

func TestDecomposeChain(t *testing.T) {
	g := gen.Chain(5000)
	r := Decompose(g, Options{Seed: 2})
	validate(t, g, r)
	if r.Rounds <= 1 {
		t.Fatal("chain should need multiple rounds")
	}
}

func TestDecomposeRMAT(t *testing.T) {
	g := gen.RMAT(12, 8, 3)
	r := Decompose(g, Options{Seed: 3})
	validate(t, g, r)
}

func TestDecomposeDisconnected(t *testing.T) {
	g := gen.Disjoint(gen.Cycle(50), gen.Chain(30), gen.Star(20))
	r := Decompose(g, Options{Seed: 4})
	validate(t, g, r)
	// Clusters never span components.
	comp := uf.NewSeq(g.NumVertices())
	for _, e := range g.Edges() {
		comp.Union(e.U, e.W)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if comp.Find(int32(v)) != comp.Find(r.Center[v]) {
			t.Fatalf("cluster of %d spans components", v)
		}
	}
}

func TestDecomposeIsolatedVertices(t *testing.T) {
	g := graph.MustFromEdges(10, []graph.Edge{{U: 0, W: 1}})
	r := Decompose(g, Options{Seed: 5})
	validate(t, g, r)
	for v := 2; v < 10; v++ {
		if r.Center[v] != int32(v) {
			t.Fatalf("isolated %d not its own center", v)
		}
	}
}

func TestDecomposeEmpty(t *testing.T) {
	g := graph.MustFromEdges(0, nil)
	r := Decompose(g, Options{Seed: 6})
	if len(r.Center) != 0 {
		t.Fatal("empty decomposition wrong")
	}
}

func TestDecomposeLocalSearch(t *testing.T) {
	for _, mk := range []func() *graph.Graph{
		func() *graph.Graph { return gen.Chain(20000) },
		func() *graph.Graph { return gen.Grid2D(60, 60, true) },
		func() *graph.Graph { return gen.RMAT(11, 6, 9) },
	} {
		g := mk()
		r := Decompose(g, Options{Seed: 7, LocalSearch: true})
		validate(t, g, r)
	}
}

func TestLocalSearchFewerRounds(t *testing.T) {
	g := gen.Chain(50000)
	orig := Decompose(g, Options{Seed: 8})
	opt := Decompose(g, Options{Seed: 8, LocalSearch: true})
	if opt.Rounds >= orig.Rounds {
		t.Fatalf("local search rounds %d, plain rounds %d — expected reduction on a chain",
			opt.Rounds, orig.Rounds)
	}
}

func TestDecomposeWithFilter(t *testing.T) {
	// Filter away the middle edge of a chain: the decomposition must never
	// cluster across it.
	n := 1000
	g := gen.Chain(n)
	mid := int32(n / 2)
	filter := func(u, w int32) bool {
		return !(u == mid && w == mid+1) && !(u == mid+1 && w == mid)
	}
	r := Decompose(g, Options{Seed: 9, Filter: filter})
	// All invariants except HasEdge still hold; check cluster side purity.
	for v := 0; v < n; v++ {
		c := r.Center[v]
		if (int32(v) <= mid) != (c <= mid) {
			t.Fatalf("vertex %d clustered across the cut (center %d)", v, c)
		}
	}
}

func TestBetaControlsClusterCount(t *testing.T) {
	g := gen.Grid2D(50, 50, true)
	count := func(beta float64) int {
		r := Decompose(g, Options{Seed: 10, Beta: beta})
		seen := map[int32]bool{}
		for _, c := range r.Center {
			seen[c] = true
		}
		return len(seen)
	}
	small := count(0.05)
	large := count(0.8)
	if small >= large {
		t.Fatalf("beta=0.05 gave %d clusters, beta=0.8 gave %d — want increase", small, large)
	}
}

// TestDecomposeCutsFewEdges holds the decomposition to MPX's per-edge
// bound: an edge is cut with probability at most 1 − e^{−β}, 18.1% at the
// default β = 0.2, so a run may cut at most that share of the edges. The
// inputs span both diameter classes. Starting v at round ⌊δ_v⌋ instead of
// ⌊δ_max⌋ − ⌊δ_v⌋ opens a cluster at most vertices and cuts 33–84% here.
func TestDecomposeCutsFewEdges(t *testing.T) {
	bound := 1 - math.Exp(-0.2)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat14", gen.RMAT(14, 8, 1)},
		{"sampledgrid200", gen.SampledGrid(200, 200, 0.6, 1)},
		{"torus300", gen.Grid2D(300, 300, true)},
		{"chain1e5", gen.Chain(100000)},
		{"knn20000", gen.KNN(20000, 5, 1)},
		{"roadlike200", gen.RoadLike(200, 200, 0.1, 1)},
	} {
		edges := tc.g.Edges()
		worst := 0.0
		for _, p := range []int{1, 2} {
			e := parallel.NewExec(p)
			for seed := uint64(1); seed <= 5; seed++ {
				r := Decompose(tc.g, Options{Seed: seed, Exec: e})
				cut := 0
				for _, ed := range edges {
					if r.Center[ed.U] != r.Center[ed.W] {
						cut++
					}
				}
				frac := float64(cut) / float64(len(edges))
				if frac > bound {
					t.Errorf("%s p=%d seed=%d: %d of %d edges cut (%.1f%%), want at most %.1f%%",
						tc.name, p, seed, cut, len(edges), 100*frac, 100*bound)
				}
				worst = math.Max(worst, frac)
			}
			e.Close()
		}
		t.Logf("%s: at most %.1f%% of %d edges cut", tc.name, 100*worst, len(edges))
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.RMAT(10, 8, 11)
	a := Decompose(g, Options{Seed: 12})
	b := Decompose(g, Options{Seed: 12})
	// Cluster membership may depend on CAS races, but the *partition into
	// connected clusters* invariants must hold for both; centers chosen by
	// shift rounds are deterministic, so cluster counts should be stable
	// within a small tolerance. We check the strong invariant instead.
	validate(t, g, a)
	validate(t, g, b)
}

// TestDecomposeBlockFlushesAcrossWorkers runs the batched frontier claims
// at 1, 2 and 4 workers, with and without local search, on inputs where
// one block claims more vertices than a prim.Appender stages between two
// flushes: the star's center claims all 5,000 leaves in one block, and the
// RMAT hubs and the grid's wide frontiers fill many batches per round. The
// result must pass validate, and at one worker, where every block runs
// inline in order, two runs must agree exactly.
func TestDecomposeBlockFlushesAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star5000", gen.Star(5001)},
		{"rmat14", gen.RMAT(14, 8, 5)},
		{"sampledgrid200", gen.SampledGrid(200, 200, 0.6, 5)},
	} {
		for _, p := range []int{1, 2, 4} {
			for _, ls := range []bool{false, true} {
				e := parallel.NewExec(p)
				opt := Options{Seed: 13, LocalSearch: ls, Exec: e}
				r := Decompose(tc.g, opt)
				validate(t, tc.g, r)
				if p == 1 {
					again := Decompose(tc.g, opt)
					if !slices.Equal(r.Center, again.Center) || !slices.Equal(r.Parent, again.Parent) || r.Rounds != again.Rounds {
						t.Fatalf("%s local=%v: two one-worker runs differ", tc.name, ls)
					}
				}
				e.Close()
			}
		}
	}
}

// TestExpandKeepsEveryOpenVertex checks one expansion step's frontier
// contract directly: afterwards every vertex that the step claimed (one
// hop), or that still has an unclaimed neighbor (local search, whose
// budget defers such vertices), is in the next frontier exactly once. A
// deferred batch lost at a flush leaves the decomposition valid — the
// orphaned neighbors open clusters of their own in later rounds — so
// validate alone cannot see it. The input is eight spiders of 300 legs of
// length two: one block of their centers claims 2,400 vertices in one hop,
// and under local search each of two blocks of four centers defers 4 × 65
// open vertices, all more than a batch.
//
// Each step runs twice: once with the spiders' centers claimed beforehand
// and passed as the frontier, and once with them unclaimed and passed as
// the round's candidates. A candidate must then be claimed as its own
// center exactly once, expanded in the same step (every leg it reached
// belongs to its cluster), and counted in the step's claims.
func TestExpandKeepsEveryOpenVertex(t *testing.T) {
	const spiders, legs = 8, 300
	var edges []graph.Edge
	var centers []int32
	for s := int32(0); s < spiders; s++ {
		c := s * (2*legs + 1)
		centers = append(centers, c)
		for i := int32(0); i < legs; i++ {
			edges = append(edges, graph.Edge{U: c, W: c + 1 + 2*i}, graph.Edge{U: c + 1 + 2*i, W: c + 2 + 2*i})
		}
	}
	n := int(spiders * (2*legs + 1))
	g := graph.MustFromEdges(n, edges)
	for _, p := range []int{1, 2, 4} {
		for _, local := range []bool{false, true} {
			for _, asCand := range []bool{false, true} {
				e := parallel.NewExec(p)
				res := &Result{Center: make([]int32, n), Parent: make([]int32, n)}
				for v := range res.Center {
					res.Center[v], res.Parent[v] = -1, -1
				}
				frontier, cand := centers, []int32(nil)
				if asCand {
					frontier, cand = nil, centers
				} else {
					for _, c := range centers {
						res.Center[c] = c
					}
				}
				x := newExpansion(e, g, res, nil)
				expand := x.expandOneHop
				if local {
					expand = x.expandLocal
				}
				next, claimed := expand(frontier, cand, make([]int32, n))
				e.Close()
				inNext := make(map[int32]bool, len(next))
				for _, v := range next {
					if inNext[v] {
						t.Fatalf("p=%d local=%v cand=%v: %d is in the next frontier twice", p, local, asCand, v)
					}
					inNext[v] = true
				}
				newly := 0
				for v := int32(0); v < int32(n); v++ {
					if res.Center[v] == -1 {
						continue
					}
					if res.Parent[v] != -1 {
						newly++
					}
					open := false
					for _, w := range g.Neighbors(v) {
						open = open || res.Center[w] == -1
					}
					if (open || (!local && res.Parent[v] != -1)) && !inNext[v] {
						t.Fatalf("p=%d local=%v cand=%v: %d is missing from the next frontier", p, local, asCand, v)
					}
				}
				if asCand {
					for _, c := range centers {
						if res.Center[c] != c || res.Parent[c] != -1 {
							t.Fatalf("p=%d local=%v: candidate %d has center %d, parent %d", p, local, c, res.Center[c], res.Parent[c])
						}
						if w := g.Neighbors(c)[0]; res.Center[w] != c {
							t.Fatalf("p=%d local=%v: candidate %d was not expanded: its leg %d has center %d", p, local, c, w, res.Center[w])
						}
					}
					newly += len(centers)
				}
				if claimed != newly {
					t.Fatalf("p=%d local=%v cand=%v: step reports %d claims, %d vertices were claimed", p, local, asCand, claimed, newly)
				}
			}
		}
	}
}
