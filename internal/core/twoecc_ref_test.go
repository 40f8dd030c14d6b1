package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bctree"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// The tests below pin TwoECC label for label, not just as a partition,
// against core.FilteredTwoECC: the bctree index stores the labels, so any
// relabelling would change a persisted snapshot.

// twoECCCorpus covers the shapes the bridge test distinguishes: structured
// graphs, power-law and grid graphs with many bridges, random multigraphs,
// a doubled bridge, self-loops, isolated vertices, and n = 0.
func twoECCCorpus() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"cycle":      gen.Cycle(12),
		"chain":      gen.Chain(10),
		"barbell":    gen.Barbell(4, 2),
		"star":       gen.Star(8),
		"cliquechn":  gen.CliqueChain(3, 4),
		"torus":      gen.Grid2D(5, 6, true),
		"disjoint":   gen.Disjoint(gen.Cycle(5), gen.Chain(4)),
		"empty":      graph.MustFromEdges(0, nil),
		"single":     graph.MustFromEdges(1, nil),
		"isolated":   graph.MustFromEdges(3, nil),
		"rmat":       gen.RMAT(10, 4, 11),
		"grid":       gen.SampledGrid(30, 30, 0.6, 12),
		"randomtree": gen.RandomTree(200, 13),
		// Two triangles joined by a doubled edge (not a bridge), a single
		// bridge 5-6, self-loops on 0 and 6, and an isolated vertex 7.
		"multi": graph.MustFromEdges(8, []graph.Edge{
			{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0}, {U: 2, W: 3}, {U: 3, W: 2},
			{U: 3, W: 4}, {U: 4, W: 5}, {U: 5, W: 3}, {U: 5, W: 6},
			{U: 0, W: 0}, {U: 6, W: 6},
		}),
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(80)
		edges := make([]graph.Edge, rng.Intn(2*n))
		for j := range edges {
			edges[j] = graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))}
		}
		gs[fmt.Sprintf("random%02d", i)] = graph.MustFromEdges(n, edges)
	}
	return gs
}

func assertTwoECCEqualsFiltered(t *testing.T, e *parallel.Exec, r *core.Result, g *graph.Graph) {
	t.Helper()
	got, want := r.TwoECCIn(e, g), core.FilteredTwoECC(e, r, g)
	if !slices.Equal(got, want) {
		t.Fatalf("TwoECC labels differ from the filtered reference:\n got %v\nwant %v", got, want)
	}
}

func TestTwoECCEqualsFilteredReference(t *testing.T) {
	for _, p := range []int{1, 4} {
		e := parallel.NewExec(p)
		defer e.Close()
		for name, g := range twoECCCorpus() {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				r := core.BCC(g, core.Options{Seed: 5, Exec: e})
				assertTwoECCEqualsFiltered(t, e, r, g)
			})
		}
	}
}

// Every engine's Result must work too: the blocks-based engines label
// over the BFS forest of engine.FromBlocks, and gbbs over its own.
func TestTwoECCEqualsFilteredReferenceEngines(t *testing.T) {
	e := parallel.NewExec(4)
	defer e.Close()
	for _, a := range engine.All() {
		for name, g := range twoECCCorpus() {
			t.Run(a.Name()+"/"+name, func(t *testing.T) {
				r, err := a.Run(g, engine.RunOptions{Exec: e, Seed: 6})
				if err != nil {
					t.Fatal(err)
				}
				assertTwoECCEqualsFiltered(t, e, r, g)
			})
		}
	}
}

// A MergeBlockPath result still describes the unmerged graph's spanning
// forest: the merged block's label-size count is what stops the bridges
// on the collapsed path from being skipped, while g keeps them as bridges.
// Each engine and graph with a cut vertex runs six chained merges, and a
// chain with nothing left to merge restarts from the engine's result, so
// the subtests run are the same whatever the draws.
func TestTwoECCEqualsFilteredReferenceMerged(t *testing.T) {
	e := parallel.NewExec(4)
	defer e.Close()
	corpus := twoECCCorpus()
	merges := 0
	for _, a := range engine.All() {
		for _, name := range slices.Sorted(maps.Keys(corpus)) {
			g := corpus[name]
			r0, err := a.Run(g, engine.RunOptions{Exec: e, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			x0 := bctree.NewIn(e, g, r0)
			if x0.NumCutVertices() == 0 {
				continue // one block per component: no path to merge
			}
			rng := rand.New(rand.NewSource(15))
			r, x := r0, x0
			for k := 0; k < 6; k++ {
				if x.NumCutVertices() == 0 {
					r, x = r0, x0
				}
				m := core.MergeBlockPath(e, r, mergePath(rng, g, x))
				if m == nil {
					t.Fatalf("%s/%s: merge %d found no path to merge", a.Name(), name, k)
				}
				merges++
				t.Run(fmt.Sprintf("%s/%s/merge%d", a.Name(), name, k), func(t *testing.T) {
					assertTwoECCEqualsFiltered(t, e, m, g)
				})
				r, x = m, bctree.NewIn(e, g, m)
			}
		}
	}
	if merges < 50 {
		t.Fatalf("only %d merges ran; the corpus no longer exercises the collapse path", merges)
	}
}

// mergePath returns the block labels on the tree path between a random
// vertex pair that crosses two or more blocks. x must have a cut vertex:
// when the draws miss, two neighbours of that vertex in different blocks
// give such a path.
func mergePath(rng *rand.Rand, g *graph.Graph, x *bctree.Index) []int32 {
	for try := 0; try < 64; try++ {
		u, v := int32(rng.Intn(int(g.N))), int32(rng.Intn(int(g.N)))
		if p := x.PathBlockLabels(u, v); p != nil {
			return p
		}
	}
	c := x.Tree().Cuts[0]
	adj := g.Neighbors(c)
	for _, u := range adj {
		for _, v := range adj {
			if p := x.PathBlockLabels(u, v); p != nil {
				return p
			}
		}
	}
	return nil
}
