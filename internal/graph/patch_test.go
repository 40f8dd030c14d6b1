package graph

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
)

func canonical(e Edge) Edge {
	if e.U > e.W {
		e.U, e.W = e.W, e.U
	}
	return e
}

// patchReference builds the graph PatchIn must reproduce: FromEdges over
// g's edge multiset plus adds minus dels (every del present).
func patchReference(t *testing.T, g *Graph, adds, dels []Edge) *Graph {
	t.Helper()
	count := map[Edge]int{}
	for _, ed := range append(g.Edges(), adds...) {
		count[canonical(ed)]++
	}
	for _, ed := range dels {
		count[canonical(ed)]--
	}
	var edges []Edge
	for ed, c := range count {
		if c < 0 {
			t.Fatalf("reference: %v deleted %d times more than present", ed, -c)
		}
		for ; c > 0; c-- {
			edges = append(edges, ed)
		}
	}
	return MustFromEdges(int(g.N), edges)
}

// checkPatch diffs PatchIn against the reference, serially and with four
// workers, and checks the result never aliases g.
func checkPatch(t *testing.T, g *Graph, adds, dels []Edge) {
	t.Helper()
	want := patchReference(t, g, adds, dels)
	for _, e := range []*parallel.Exec{parallel.Limit(1), nil} {
		got, err := PatchIn(e, g, adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		equalGraphs(t, got, want)
		if len(g.Adj) > 0 && len(got.Adj) > 0 && &got.Adj[0] == &g.Adj[0] {
			t.Fatal("patched adjacency aliases the base graph")
		}
	}
}

// TestPatchMatchesFromEdges patches random multigraphs (self-loops and
// parallel edges on both sides) with random insertions and deletions of
// present occurrences, and diffs every result against FromEdges.
func TestPatchMatchesFromEdges(t *testing.T) {
	old := parallel.SetProcs(4)
	defer parallel.SetProcs(old)
	rng := rand.New(rand.NewSource(14))
	randEdge := func(n int) Edge {
		u, w := V(rng.Intn(n)), V(rng.Intn(n))
		if rng.Intn(10) == 0 {
			w = u
		}
		return Edge{u, w}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3000)
		base := make([]Edge, rng.Intn(4*n))
		for i := range base {
			base[i] = randEdge(n)
			if i > 0 && rng.Intn(8) == 0 {
				base[i] = base[rng.Intn(i)]
			}
		}
		g := MustFromEdges(n, base)
		var adds, dels []Edge
		for i := rng.Intn(200); i > 0; i-- {
			if len(base) > 0 && rng.Intn(3) == 0 {
				adds = append(adds, base[rng.Intn(len(base))]) // parallel copy
			} else {
				adds = append(adds, randEdge(n))
			}
		}
		// Delete distinct occurrences of base edges, and some of the
		// insertions too (in either orientation).
		for _, i := range rng.Perm(len(base))[:rng.Intn(min(len(base), 200)+1)] {
			dels = append(dels, base[i])
		}
		for _, i := range rng.Perm(len(adds))[:rng.Intn(len(adds)+1)/2] {
			dels = append(dels, Edge{adds[i].W, adds[i].U})
		}
		checkPatch(t, g, adds, dels)
	}
}

func TestPatchEdgeCases(t *testing.T) {
	old := parallel.SetProcs(4)
	defer parallel.SetProcs(old)
	multi := MustFromEdges(6, []Edge{{0, 1}, {0, 1}, {1, 2}, {2, 2}, {2, 2}, {3, 4}, {4, 5}, {5, 3}, {3, 3}})
	// A star big enough to span several parallel blocks.
	const leaves = 5000
	var star []Edge
	for i := 1; i <= leaves; i++ {
		star = append(star, Edge{0, V(i)})
	}
	hub := MustFromEdges(2*leaves, star)
	var hubAdds, hubDels []Edge
	for i := leaves + 1; i < 2*leaves; i += 3 {
		hubAdds = append(hubAdds, Edge{V(i), 0})
	}
	for i := 2; i <= leaves; i += 2 {
		hubDels = append(hubDels, Edge{0, V(i)})
	}
	for _, tc := range []struct {
		name       string
		g          *Graph
		adds, dels []Edge
	}{
		{"no changes", multi, nil, nil},
		{"self-loop gained", multi, []Edge{{4, 4}, {4, 4}, {0, 0}}, nil},
		{"self-loop lost", multi, nil, []Edge{{2, 2}}},
		{"parallel edge gained", multi, []Edge{{1, 0}, {0, 1}, {4, 5}}, nil},
		{"one of two parallel edges lost", multi, nil, []Edge{{1, 0}}},
		{"added then deleted", multi, []Edge{{0, 5}}, []Edge{{5, 0}}},
		{"vertex loses every arc", multi, nil, []Edge{{3, 4}, {5, 3}, {3, 3}}},
		{"every edge lost", multi, nil, multi.Edges()},
		{"first and last vertex", multi, []Edge{{0, 5}, {5, 5}}, []Edge{{0, 1}, {4, 5}}},
		{"hub gains and loses arcs", hub, hubAdds, hubDels},
		{"hub loses every arc", hub, nil, star},
		{"empty graph", MustFromEdges(0, nil), nil, nil},
		{"isolated vertices", MustFromEdges(5, nil), []Edge{{4, 0}, {2, 2}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { checkPatch(t, tc.g, tc.adds, tc.dels) })
	}
}

func TestPatchErrors(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 2}})
	unsorted := MustFromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	unsorted.Adj[0], unsorted.Adj[2] = unsorted.Adj[2], unsorted.Adj[0]
	for _, tc := range []struct {
		name       string
		g          *Graph
		adds, dels []Edge
		want       string
	}{
		{"add beyond n", g, []Edge{{0, 4}}, nil, "out of range"},
		{"add negative", g, []Edge{{-1, 2}}, nil, "out of range"},
		{"delete beyond n", g, nil, []Edge{{7, 1}}, "out of range"},
		{"add to empty graph", MustFromEdges(0, nil), []Edge{{0, 0}}, nil, "out of range"},
		{"delete absent edge", g, nil, []Edge{{0, 2}}, "absent"},
		{"delete one too many", g, nil, []Edge{{1, 0}, {0, 1}}, "absent"},
		{"delete absent self-loop", g, nil, []Edge{{1, 1}}, "absent"},
		{"unsorted touched list", unsorted, []Edge{{0, 1}}, nil, "not sorted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := PatchIn(nil, tc.g, tc.adds, tc.dels)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("PatchIn = %v, %v; want an error containing %q", got, err, tc.want)
			}
		})
	}
}

func TestMultiplicity(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 2}, {2, 2}, {3, 3}})
	for _, tc := range []struct {
		u, w V
		want int
	}{
		{0, 1, 2}, {1, 0, 2}, {1, 2, 1}, {2, 2, 2}, {3, 3, 1},
		{0, 2, 0}, {0, 0, 0}, {0, 4, 0}, {-1, 0, 0}, {4, 4, 0},
	} {
		if got := g.Multiplicity(tc.u, tc.w); got != tc.want {
			t.Errorf("Multiplicity(%d,%d) = %d, want %d", tc.u, tc.w, got, tc.want)
		}
	}
}
