package etour

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/conn"
	"repro/internal/gen"
	"repro/internal/graph"
)

// rootForest runs First-CC on g and roots the resulting forest with
// RootIn, then tours RootIn's parents again with FromParentsIn. It returns
// both tours, so every test checks both entry points on the same forest.
func rootForest(t *testing.T, g *graph.Graph) ([]*Rooted, []int32) {
	t.Helper()
	cc := conn.Connectivity(g, conn.Options{Seed: 99, WantForest: true})
	r := Root(g.NumVertices(), cc.Forest, cc.Comp)
	return []*Rooted{r, fromParents(t, r, cc.Comp)}, cc.Comp
}

// fromParents tours r's parents with FromParentsIn and checks that the
// tour keeps them and roots every vertex at its representative in comp.
func fromParents(t *testing.T, r *Rooted, comp []int32) *Rooted {
	t.Helper()
	fp := FromParentsIn(nil, slices.Clone(r.Parent))
	if !slices.Equal(fp.Parent, r.Parent) {
		t.Fatalf("FromParentsIn changed the parents:\n got %v\nwant %v", fp.Parent, r.Parent)
	}
	if !slices.Equal(fp.Root, comp) {
		t.Fatalf("FromParentsIn roots %v, want %v", fp.Root, comp)
	}
	if fp.NumTrees != r.NumTrees {
		t.Fatalf("FromParentsIn NumTrees = %d, RootIn %d", fp.NumTrees, r.NumTrees)
	}
	return fp
}

// validate checks the Euler-tour invariants that Alg. 1 depends on.
func validate(t *testing.T, n int, r *Rooted, comp []int32) {
	t.Helper()
	if len(r.Tour) != 2*n-r.NumTrees {
		t.Fatalf("tour length %d, want %d", len(r.Tour), 2*n-r.NumTrees)
	}
	for v := 0; v < n; v++ {
		f, l := r.First[v], r.Last[v]
		if f < 0 || l >= int32(len(r.Tour)) || f > l {
			t.Fatalf("vertex %d: first=%d last=%d", v, f, l)
		}
		if r.Tour[f] != int32(v) || r.Tour[l] != int32(v) {
			t.Fatalf("vertex %d: tour[first]=%d tour[last]=%d", v, r.Tour[f], r.Tour[l])
		}
		if comp[v] == int32(v) {
			if r.Parent[v] != -1 {
				t.Fatalf("root %d has parent %d", v, r.Parent[v])
			}
		} else {
			p := r.Parent[v]
			if p < 0 || int(p) >= n {
				t.Fatalf("vertex %d parent %d invalid", v, p)
			}
			// Parent interval strictly contains child interval.
			if !(r.First[p] <= r.First[v] && r.Last[p] >= r.Last[v]) {
				t.Fatalf("vertex %d interval [%d,%d] not inside parent %d [%d,%d]",
					v, r.First[v], r.Last[v], p, r.First[p], r.Last[p])
			}
			if r.First[p] == r.First[v] {
				t.Fatalf("child %d shares first with parent %d", v, p)
			}
		}
	}
	// Every vertex appears on the tour only inside [first, last].
	for slot, v := range r.Tour {
		if r.First[v] > int32(slot) || r.Last[v] < int32(slot) {
			t.Fatalf("slot %d holds %d outside its [first,last]", slot, v)
		}
	}
	// Ancestor relation via intervals must match parent chains: walk each
	// vertex's chain to the root and check interval nesting, and conversely
	// check interval nesting implies ancestry (spot check).
	depth := make([]int32, n)
	for v := 0; v < n; v++ {
		d := int32(0)
		x := int32(v)
		for r.Parent[x] != -1 {
			x = r.Parent[x]
			d++
			if int(d) > n {
				t.Fatalf("parent cycle at %d", v)
			}
		}
		depth[v] = d
		if x != comp[v] {
			t.Fatalf("vertex %d parent chain ends at %d, want rep %d", v, x, comp[v])
		}
	}
	// Consecutive tour slots must be tree edges (the tour walks the tree).
	for i := 1; i < len(r.Tour); i++ {
		u, v := r.Tour[i-1], r.Tour[i]
		if comp[u] != comp[v] {
			continue // tree boundary in the concatenation
		}
		if u == v {
			t.Fatalf("tour repeats vertex %d at %d", u, i)
		}
		if r.Parent[u] != v && r.Parent[v] != u {
			t.Fatalf("tour step %d: (%d,%d) is not a tree edge", i, u, v)
		}
	}
}

func TestRootChain(t *testing.T) {
	g := gen.Chain(500)
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		validate(t, 500, r, comp)
		if r.NumTrees != 1 {
			t.Fatalf("NumTrees = %d", r.NumTrees)
		}
	}
}

func TestRootStar(t *testing.T) {
	g := gen.Star(100)
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		validate(t, 100, r, comp)
	}
}

func TestRootRandomTrees(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.RandomTree(300, seed)
		rs, comp := rootForest(t, g)
		for _, r := range rs {
			validate(t, 300, r, comp)
		}
	}
}

func TestRootGrid(t *testing.T) {
	g := gen.Grid2D(20, 30, true)
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		validate(t, 600, r, comp)
	}
}

func TestRootForestMultipleTrees(t *testing.T) {
	g := gen.Disjoint(gen.Chain(50), gen.Cycle(60), gen.Star(40), gen.Clique(10))
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		validate(t, g.NumVertices(), r, comp)
		if r.NumTrees != 4 {
			t.Fatalf("NumTrees = %d, want 4", r.NumTrees)
		}
	}
}

func TestRootIsolatedVertices(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{U: 1, W: 2}})
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		validate(t, 5, r, comp)
		if r.NumTrees != 4 {
			t.Fatalf("NumTrees = %d, want 4", r.NumTrees)
		}
		// Isolated vertices occupy exactly one slot.
		for _, v := range []int32{0, 3, 4} {
			if r.First[v] != r.Last[v] {
				t.Fatalf("isolated %d: first != last", v)
			}
		}
	}
}

// TestRootSingletons roots forests with no edges at all: n = 0, n = 1,
// and a forest of only singleton trees.
func TestRootSingletons(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		rs, comp := rootForest(t, graph.MustFromEdges(n, nil))
		for _, r := range rs {
			validate(t, n, r, comp)
			if r.NumTrees != n {
				t.Fatalf("n=%d: NumTrees = %d", n, r.NumTrees)
			}
			for v := 0; v < n; v++ {
				if r.First[v] != int32(v) || r.Last[v] != int32(v) {
					t.Fatalf("n=%d: singleton %d interval [%d,%d]", n, v, r.First[v], r.Last[v])
				}
			}
		}
	}
}

func TestRootEmpty(t *testing.T) {
	for _, r := range []*Rooted{Root(0, nil, nil), FromParentsIn(nil, nil)} {
		if len(r.Tour) != 0 || r.NumTrees != 0 {
			t.Fatal("empty root wrong")
		}
	}
}

func TestRootSingleEdge(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, W: 1}})
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		validate(t, 2, r, comp)
		root := comp[0]
		other := 1 - root
		if r.First[root] != 0 || r.Last[root] != 2 {
			t.Fatalf("root interval [%d,%d]", r.First[root], r.Last[root])
		}
		if r.First[other] != 1 || r.Last[other] != 1 {
			t.Fatalf("leaf interval [%d,%d]", r.First[other], r.Last[other])
		}
	}
}

func TestSubtreeIntervalNesting(t *testing.T) {
	// Property: for any two vertices in one tree, intervals are either
	// nested (ancestor) or disjoint — never partially overlapping.
	g := gen.RandomTree(400, 7)
	rs, _ := rootForest(t, g)
	n := 400
	for _, r := range rs {
		for a := 0; a < n; a += 7 {
			for b := a + 1; b < n; b += 11 {
				fa, la := r.First[a], r.Last[a]
				fb, lb := r.First[b], r.Last[b]
				nestedAB := fa <= fb && la >= lb
				nestedBA := fb <= fa && lb >= la
				disjoint := la < fb || lb < fa
				if !nestedAB && !nestedBA && !disjoint {
					t.Fatalf("intervals of %d [%d,%d] and %d [%d,%d] partially overlap",
						a, fa, la, b, fb, lb)
				}
			}
		}
	}
}

func TestAncestorViaIntervalsMatchesParentChain(t *testing.T) {
	g := gen.RandomTree(200, 8)
	rs, _ := rootForest(t, g)
	n := 200
	for _, r := range rs {
		anc := func(u, v int) bool { // u ancestor of v via parent chain
			x := int32(v)
			for x != -1 {
				if x == int32(u) {
					return true
				}
				x = r.Parent[x]
			}
			return false
		}
		for u := 0; u < n; u += 3 {
			for v := 0; v < n; v += 5 {
				byInterval := r.First[u] <= r.First[v] && r.Last[u] >= r.Last[v]
				if byInterval != anc(u, v) {
					t.Fatalf("ancestor(%d,%d): interval=%v chain=%v", u, v, byInterval, anc(u, v))
				}
			}
		}
	}
}

func TestEachArcOnTourTwice(t *testing.T) {
	// Every tree edge must appear exactly twice as consecutive tour slots
	// (once per direction).
	g := gen.RandomTree(150, 9)
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		counts := map[[2]int32]int{}
		for i := 1; i < len(r.Tour); i++ {
			u, v := r.Tour[i-1], r.Tour[i]
			if comp[u] != comp[v] {
				continue
			}
			counts[[2]int32{u, v}]++
		}
		for k, c := range counts {
			if c != 1 {
				t.Fatalf("arc %v appears %d times", k, c)
			}
			if counts[[2]int32{k[1], k[0]}] != 1 {
				t.Fatalf("reverse of arc %v missing", k)
			}
		}
		if len(counts) != 2*(150-1) {
			t.Fatalf("tour has %d arcs, want %d", len(counts), 2*149)
		}
	}
}

func TestRootQuickRandomForests(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		// Random graph: may be disconnected.
		m := rng.Intn(2 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			u, w := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != w {
				edges = append(edges, graph.Edge{U: u, W: w})
			}
		}
		g := graph.MustFromEdges(n, edges)
		cc := conn.Connectivity(g, conn.Options{Seed: uint64(seed), WantForest: true})
		r := Root(n, cc.Forest, cc.Comp)
		for _, r := range []*Rooted{r, FromParentsIn(nil, slices.Clone(r.Parent))} {
			// Minimal invariants (full validate uses t; re-check key ones).
			if len(r.Tour) != 2*n-r.NumTrees {
				return false
			}
			for v := 0; v < n; v++ {
				if r.Tour[r.First[v]] != int32(v) || r.Tour[r.Last[v]] != int32(v) {
					return false
				}
				if cc.Comp[v] == int32(v) && r.Parent[v] != -1 {
					return false
				}
				if cc.Comp[v] != int32(v) {
					p := r.Parent[v]
					if p < 0 || !(r.First[p] <= r.First[v] && r.Last[p] >= r.Last[v]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
