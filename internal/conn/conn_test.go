package conn

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ldd"
	"repro/internal/parallel"
	"repro/internal/uf"
)

// refComponents computes components with a sequential union-find.
func refComponents(g *graph.Graph, filter func(u, w int32) bool) *uf.Seq {
	s := uf.NewSeq(g.NumVertices())
	for v := int32(0); v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w && (filter == nil || filter(v, w)) {
				s.Union(v, w)
			}
		}
	}
	return s
}

func checkAgainstRef(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	res := Connectivity(g, opt)
	checkResult(t, g, res, opt)
	return res
}

// checkResult checks a connectivity result for g under opt against the
// sequential reference, and its forest when opt asks for one.
func checkResult(t *testing.T, g *graph.Graph, res *Result, opt Options) {
	t.Helper()
	ref := refComponents(g, opt.Filter)
	if res.NumComp != ref.NumSets() {
		t.Fatalf("NumComp = %d, want %d", res.NumComp, ref.NumSets())
	}
	for v := int32(0); v < g.N; v++ {
		for w := v + 1; w < g.N && w < v+50; w++ {
			if (res.Comp[v] == res.Comp[w]) != ref.SameSet(v, w) {
				t.Fatalf("components disagree for (%d,%d)", v, w)
			}
		}
	}
	if opt.WantForest {
		checkForest(t, g, res, opt.Filter)
	}
}

func checkForest(t *testing.T, g *graph.Graph, res *Result, filter func(u, w int32) bool) {
	t.Helper()
	n := g.NumVertices()
	if len(res.Forest) != n-res.NumComp {
		t.Fatalf("forest has %d edges, want %d", len(res.Forest), n-res.NumComp)
	}
	s := uf.NewSeq(n)
	for _, e := range res.Forest {
		if !g.HasEdge(e.U, e.W) {
			t.Fatalf("forest edge (%d,%d) not in graph", e.U, e.W)
		}
		if filter != nil && !filter(e.U, e.W) {
			t.Fatalf("forest edge (%d,%d) violates filter", e.U, e.W)
		}
		if !s.Union(e.U, e.W) {
			t.Fatalf("forest edge (%d,%d) creates a cycle", e.U, e.W)
		}
	}
	// The forest must reproduce the same partition.
	for v := int32(0); v < g.N; v++ {
		if (s.Find(v) == s.Find(res.Comp[v])) == false {
			t.Fatalf("forest does not span component of %d", v)
		}
	}
}

var testGraphs = []struct {
	name string
	g    func() *graph.Graph
}{
	{"chain", func() *graph.Graph { return gen.Chain(3000) }},
	{"cycle", func() *graph.Graph { return gen.Cycle(2048) }},
	{"grid", func() *graph.Graph { return gen.Grid2D(40, 50, true) }},
	{"rmat", func() *graph.Graph { return gen.RMAT(11, 8, 1) }},
	{"disjoint", func() *graph.Graph {
		return gen.Disjoint(gen.Cycle(100), gen.Chain(200), gen.Clique(30), gen.Star(50))
	}},
	{"isolated", func() *graph.Graph {
		return graph.MustFromEdges(100, []graph.Edge{{U: 0, W: 1}, {U: 50, W: 51}})
	}},
	{"empty", func() *graph.Graph { return graph.MustFromEdges(0, nil) }},
	{"singleton", func() *graph.Graph { return graph.MustFromEdges(1, nil) }},
	{"sampledgrid", func() *graph.Graph { return gen.SampledGrid(40, 40, 0.55, 3) }},
}

func TestLDDUFJTBAllGraphs(t *testing.T) {
	for _, tc := range testGraphs {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstRef(t, tc.g(), Options{Seed: 1, WantForest: true})
		})
	}
}

func TestLocalSearchAllGraphs(t *testing.T) {
	for _, tc := range testGraphs {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstRef(t, tc.g(), Options{Seed: 2, LocalSearch: true, WantForest: true})
		})
	}
}

func TestFilteredConnectivity(t *testing.T) {
	// Cycle with two opposite edges filtered out: splits into 2 components.
	n := 100
	g := gen.Cycle(n)
	banned := map[[2]int32]bool{
		{0, 1}:                         true,
		{int32(n / 2), int32(n/2 + 1)}: true,
	}
	filter := func(u, w int32) bool {
		if u > w {
			u, w = w, u
		}
		return !banned[[2]int32{u, w}]
	}
	res := checkAgainstRef(t, g, Options{Filter: filter, Seed: 3, WantForest: true})
	if res.NumComp != 2 {
		t.Fatalf("NumComp = %d, want 2", res.NumComp)
	}
}

func TestFilterAllEdges(t *testing.T) {
	g := gen.Clique(20)
	res := Connectivity(g, Options{Filter: func(u, w int32) bool { return false }, WantForest: true})
	if res.NumComp != 20 || len(res.Forest) != 0 {
		t.Fatalf("all-filtered: comp=%d forest=%d", res.NumComp, len(res.Forest))
	}
}

func TestNormalize(t *testing.T) {
	g := gen.Disjoint(gen.Cycle(10), gen.Cycle(10), gen.Cycle(10))
	res := Connectivity(g, Options{Seed: 4})
	dense := res.Normalize()
	seen := map[int32]bool{}
	for _, d := range dense {
		if d < 0 || int(d) >= res.NumComp {
			t.Fatalf("dense label %d out of range [0,%d)", d, res.NumComp)
		}
		seen[d] = true
	}
	if len(seen) != res.NumComp {
		t.Fatalf("dense labels used %d of %d", len(seen), res.NumComp)
	}
	for v := 0; v < len(dense); v++ {
		for w := v + 1; w < len(dense); w++ {
			if (dense[v] == dense[w]) != (res.Comp[v] == res.Comp[w]) {
				t.Fatal("normalize changed the partition")
			}
		}
	}
}

func TestConnectivityQuickRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		m := rng.Intn(3 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		res := Connectivity(g, Options{Seed: uint64(seed), WantForest: true})
		ref := refComponents(g, nil)
		if res.NumComp != ref.NumSets() {
			return false
		}
		s := uf.NewSeq(n)
		for _, e := range res.Forest {
			if !s.Union(e.U, e.W) {
				return false // cycle in forest
			}
		}
		for v := int32(0); v < g.N; v++ {
			for w := v + 1; w < g.N; w++ {
				if ref.SameSet(v, w) != (res.Comp[v] == res.Comp[w]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, W: 0}, {U: 1, W: 2}})
	res := Connectivity(g, Options{WantForest: true})
	if res.NumComp != 2 {
		t.Fatalf("NumComp = %d, want 2", res.NumComp)
	}
	if len(res.Forest) != 1 {
		t.Fatalf("forest = %v", res.Forest)
	}
}

func TestParallelEdges(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, W: 1}, {U: 0, W: 1}, {U: 0, W: 1}})
	res := Connectivity(g, Options{WantForest: true})
	if res.NumComp != 1 || len(res.Forest) != 1 {
		t.Fatalf("parallel edges: comp=%d forest=%d", res.NumComp, len(res.Forest))
	}
}

// TestConnectivityBlockFlushesAcrossWorkers runs the batched forest
// appends at 1, 2 and 4 workers, with and without local search, on inputs
// where one block produces more forest edges than a prim.Appender stages
// between two flushes (the star's cluster-parent edges, the RMAT and grid
// cut edges). A lost or doubled batch shows up in checkForest as a wrong
// edge count, a cycle or a component the forest misses. At one worker,
// where every block runs inline in order, two runs must agree exactly.
func TestConnectivityBlockFlushesAcrossWorkers(t *testing.T) {
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
				opt := Options{Seed: 13, LocalSearch: ls, WantForest: true, Exec: e}
				res := checkAgainstRef(t, tc.g, opt)
				if p == 1 {
					again := Connectivity(tc.g, opt)
					if !slices.Equal(res.Comp, again.Comp) || !slices.Equal(res.Forest, again.Forest) {
						t.Fatalf("%s local=%v: two one-worker runs differ", tc.name, ls)
					}
				}
				e.Close()
			}
		}
	}
}

// clustersByKey is a hand-made decomposition of g: the connected pieces of
// the subgraph that keeps only the edges whose ends share a key (and pass
// filter), each spanned by a BFS tree from its smallest vertex, its center.
func clustersByKey(g *graph.Graph, key []int32, filter func(u, w int32) bool) *ldd.Result {
	n := g.NumVertices()
	dec := &ldd.Result{Center: make([]int32, n), Parent: make([]int32, n)}
	for v := range n {
		dec.Center[v], dec.Parent[v] = -1, -1
	}
	var queue []int32
	for c := int32(0); c < g.N; c++ {
		if dec.Center[c] != -1 {
			continue
		}
		dec.Center[c] = c
		queue = append(queue[:0], c)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if dec.Center[w] == -1 && key[w] == key[c] && (filter == nil || filter(v, w)) {
					dec.Center[w], dec.Parent[w] = c, v
					queue = append(queue, w)
				}
			}
		}
	}
	return dec
}

// TestCutEdgeWalkSkipsDominantCluster runs the cut-edge walk with the
// dominant cluster placed by hand, at 1, 2 and 4 workers, with and without
// a symmetric filter. In the grid the dominant cluster is a middle square,
// so its cut edges lead to ids on both sides of its own; the RMAT graph's
// clusters are random-key pieces around its hubs; on the ring every vertex
// is its own cluster, so no cluster dominates. Each input runs with the
// cluster DominantSet picks, with no skipped cluster (-1), and with every
// cluster among the first 16 centers skipped in turn. Connectivity
// itself runs on RMAT-12-8, whose decomposition leaves one cluster with
// nearly every arc.
func TestCutEdgeWalkSkipsDominantCluster(t *testing.T) {
	const side = 60
	grid := gen.Grid2D(side, side, false)
	gridKey := make([]int32, side*side)
	for v := range gridKey {
		r, c := v/side, v%side
		if r < 15 || r >= 45 || c < 15 || c >= 45 {
			gridKey[v] = int32(1 + r/15*4 + c/15)
		}
	}
	rmat := gen.RMAT(10, 8, 3)
	rng := rand.New(rand.NewSource(3))
	rmatKey := make([]int32, rmat.NumVertices())
	for v := range rmatKey {
		rmatKey[v] = int32(rng.Intn(3))
	}
	ring := gen.Cycle(500)
	ringKey := make([]int32, 500)
	for v := range ringKey {
		ringKey[v] = int32(v)
	}
	drop := func(u, w int32) bool { return (u+w)%5 != 0 }
	for _, in := range []struct {
		name string
		g    *graph.Graph
		key  []int32
	}{
		{"grid", grid, gridKey},
		{"rmat", rmat, rmatKey},
		{"ring", ring, ringKey},
	} {
		for _, filter := range []func(u, w int32) bool{nil, drop} {
			dec := clustersByKey(in.g, in.key, filter)
			bigs := []int32{DominantSet(in.g, dec.Center), -1}
			for v, c := range dec.Center {
				if c == int32(v) && len(bigs) < 18 {
					bigs = append(bigs, c)
				}
			}
			for _, p := range []int{1, 2, 4} {
				e := parallel.NewExec(p)
				for _, big := range bigs {
					opt := Options{Filter: filter, WantForest: true, Exec: e}
					checkResult(t, in.g, joinClusters(in.g, dec, big, opt), opt)
				}
				e.Close()
			}
		}
	}
	g := gen.RMAT(12, 8, 9)
	for _, filter := range []func(u, w int32) bool{nil, drop} {
		for _, p := range []int{1, 2, 4} {
			e := parallel.NewExec(p)
			checkAgainstRef(t, g, Options{Filter: filter, WantForest: true, Exec: e})
			e.Close()
		}
	}
}

func TestDominantSet(t *testing.T) {
	if got := DominantSet(graph.MustFromEdges(3, nil), []int32{0, 1, 2}); got != -1 {
		t.Fatalf("DominantSet of an edgeless graph = %d, want -1", got)
	}
	// A star's arcs point at its center from every leaf and at every
	// leaf from the center, so the set holding the center and half the
	// leaves holds most of the arc targets.
	g := gen.Star(101)
	set := make([]int32, 101)
	for v := range set {
		set[v] = int32(v % 2)
	}
	set[0] = 7
	for v := 1; v <= 60; v++ {
		set[v] = 7
	}
	if got := DominantSet(g, set); got != 7 {
		t.Fatalf("DominantSet = %d, want 7", got)
	}
}
