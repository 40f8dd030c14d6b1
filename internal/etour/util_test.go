package etour

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestSubtreeSizes(t *testing.T) {
	g := gen.Chain(10)
	rs, comp := rootForest(t, g)
	for _, r := range rs {
		sizes := r.SubtreeSizes()
		// Root subtree = whole tree; leaf subtrees = 1.
		for v := 0; v < 10; v++ {
			if comp[v] == int32(v) && sizes[v] != 10 {
				t.Fatalf("root subtree size %d", sizes[v])
			}
			if sizes[v] < 1 || sizes[v] > 10 {
				t.Fatalf("size[%d] = %d", v, sizes[v])
			}
		}
		// Child sizes sum to parent size - 1.
		for v := 0; v < 10; v++ {
			var kids int32
			for w := 0; w < 10; w++ {
				if r.Parent[w] == int32(v) {
					kids += sizes[w]
				}
			}
			if kids != sizes[v]-1 {
				t.Fatalf("children of %d sum to %d, want %d", v, kids, sizes[v]-1)
			}
		}
	}
}

func TestSubtreeSizesRandom(t *testing.T) {
	g := gen.RandomTree(200, 3)
	rs, _ := rootForest(t, g)
	for _, r := range rs {
		sizes := r.SubtreeSizes()
		for v := 0; v < 200; v++ {
			var kids int32
			for w := 0; w < 200; w++ {
				if r.Parent[w] == int32(v) {
					kids += sizes[w]
				}
			}
			if kids != sizes[v]-1 {
				t.Fatalf("subtree size identity broken at %d", v)
			}
		}
	}
}

func TestIsAncestor(t *testing.T) {
	g := gen.RandomTree(100, 4)
	rs, _ := rootForest(t, g)
	for _, r := range rs {
		chainAnc := func(u, v int32) bool {
			for v != -1 {
				if v == u {
					return true
				}
				v = r.Parent[v]
			}
			return false
		}
		for u := int32(0); u < 100; u += 3 {
			for v := int32(0); v < 100; v += 5 {
				if r.IsAncestor(u, v) != chainAnc(u, v) {
					t.Fatalf("IsAncestor(%d,%d) mismatch", u, v)
				}
			}
		}
	}
}

func TestDepths(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Chain(50),
		gen.Star(30),
		gen.RandomTree(150, 5),
		gen.Disjoint(gen.Chain(10), gen.Star(8), gen.RandomTree(20, 6)),
	} {
		rs, _ := rootForest(t, g)
		for _, r := range rs {
			got := r.Depths()
			for v := 0; v < g.NumVertices(); v++ {
				want := int32(0)
				x := int32(v)
				for r.Parent[x] != -1 {
					x = r.Parent[x]
					want++
				}
				if got[v] != want {
					t.Fatalf("depth[%d] = %d, want %d", v, got[v], want)
				}
			}
		}
	}
}

func TestDepthsIsolated(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, W: 1}})
	rs, _ := rootForest(t, g)
	for _, r := range rs {
		if d := r.Depths(); d[2] != 0 {
			t.Fatalf("isolated depth = %d", d[2])
		}
	}
}
