package conn

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
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
	return res
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
