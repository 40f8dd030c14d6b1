package core

import (
	"slices"
	"testing"

	"repro/internal/conn"
	"repro/internal/etour"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/tags"
	"repro/internal/uf"
)

// refLastCC is Last-CC without the dominant-set skip: a sequential
// union-find over every skeleton arc of g that tg's predicates admit (the
// non-fence tree edges and the cross edges), with the labels, heads and
// label sizes lastCC derives from the same partition. uf.UF roots a set
// at its largest member, so a label is the rank of its set's largest
// member among all sets' largest members.
func refLastCC(g *graph.Graph, tg *tags.Tags) (label, head, sizes []int32) {
	n := g.NumVertices()
	s := uf.NewSeq(n)
	for v := int32(0); v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w && tg.InSkeleton(v, w) {
				s.Union(v, w)
			}
		}
	}
	top := make([]int32, n) // the largest member, indexed by Seq root
	for v := int32(0); v < g.N; v++ {
		top[s.Find(v)] = v
	}
	rank := make([]int32, n)
	labels := int32(0)
	for v := int32(0); v < g.N; v++ {
		if top[s.Find(v)] == v {
			rank[v] = labels
			labels++
		}
	}
	label = make([]int32, n)
	head = make([]int32, labels)
	sizes = make([]int32, labels)
	for v := int32(0); v < g.N; v++ {
		l := rank[top[s.Find(v)]]
		label[v] = l
		p := tg.Parent[v]
		if p == -1 {
			head[l] = -1
			continue
		}
		sizes[l]++
		if s.Find(p) != s.Find(v) {
			head[l] = p
		}
	}
	return label, head, sizes
}

// treeSets is the partition Last-CC snapshots after its tree unions: the
// pieces of the forest left when the fence edges are removed, as the
// largest member of each vertex's piece.
func treeSets(tg *tags.Tags) []int32 {
	n := len(tg.Parent)
	s := uf.NewSeq(n)
	for v := range n {
		if p := tg.Parent[v]; p != -1 && !tg.Fence(p, int32(v)) {
			s.Union(int32(v), p)
		}
	}
	top := make([]int32, n)
	for v := range n {
		top[s.Find(int32(v))] = int32(v)
	}
	set := make([]int32, n)
	for v := range n {
		set[v] = top[s.Find(int32(v))]
	}
	return set
}

// dominantFirst relabels g so that the set treeSets leaves holding the
// most arcs, over the one-worker First-CC forest, takes ids 0..k-1. It
// returns the relabeled graph with that forest and its roots relabeled
// the same way, so the relabeled sets are the old ones.
func dominantFirst(g *graph.Graph) (*graph.Graph, []graph.Edge, []int32) {
	n := g.NumVertices()
	e := parallel.NewExec(1)
	defer e.Close()
	cc := conn.Connectivity(g, conn.Options{WantForest: true, Exec: e})
	set := treeSets(tags.ComputeIn(e, g, etour.RootIn(e, n, cc.Forest, cc.Comp, nil), nil))
	big := conn.DominantSet(g, set)
	perm := make([]int32, n)
	next := int32(0)
	for _, inBig := range []bool{true, false} {
		for v := range n {
			if (set[v] == big) == inBig {
				perm[v] = next
				next++
			}
		}
	}
	edges := g.Edges()
	for i := range edges {
		edges[i] = graph.Edge{U: perm[edges[i].U], W: perm[edges[i].W]}
	}
	forest := make([]graph.Edge, len(cc.Forest))
	for i, f := range cc.Forest {
		forest[i] = graph.Edge{U: perm[f.U], W: perm[f.W]}
	}
	comp := make([]int32, n)
	for v := range n {
		comp[perm[v]] = perm[cc.Comp[v]]
	}
	return graph.MustFromEdges(n, edges), forest, comp
}

// TestLastCCSkipMatchesFullWalk requires Last-CC, which skips the arcs of
// the set holding the most arcs after its tree unions, to give the same
// Label, Head and LabelSizes arrays as refLastCC over the same tags, at
// 1, 2 and 4 workers. The inputs are RMAT-13-8, a 200x200 sampled grid,
// and a 120x120 sampled grid relabeled by dominantFirst, where every
// cross edge that leaves the dominant set goes to a larger id, so it is
// unioned only from the far end.
func TestLastCCSkipMatchesFullWalk(t *testing.T) {
	relabeled, relForest, relComp := dominantFirst(gen.SampledGrid(120, 120, 0.6, 9))
	if set := treeSets(tags.Compute(relabeled, etour.Root(relabeled.NumVertices(), relForest, relComp))); set[0] != conn.DominantSet(relabeled, set) {
		t.Fatal("relabeled input: vertex 0 is not in the dominant set")
	}
	for _, in := range []struct {
		name   string
		g      *graph.Graph
		forest []graph.Edge // nil: First-CC's, at the test's worker count
		comp   []int32
	}{
		{"rmat13", gen.RMAT(13, 8, 5), nil, nil},
		{"sampledgrid200", gen.SampledGrid(200, 200, 0.6, 5), nil, nil},
		{"dominantfirst", relabeled, relForest, relComp},
	} {
		for _, p := range []int{1, 2, 4} {
			e := parallel.NewExec(p)
			forest, comp := in.forest, in.comp
			if forest == nil {
				cc := conn.Connectivity(in.g, conn.Options{WantForest: true, Exec: e})
				forest, comp = cc.Forest, cc.Comp
			}
			rt := etour.RootIn(e, in.g.NumVertices(), forest, comp, nil)
			tg := tags.ComputeIn(e, in.g, rt, nil)
			res := &Result{}
			lastCC(e, in.g, tg, rt.NumTrees, nil, res)
			label, head, sizes := refLastCC(in.g, tg)
			if !slices.Equal(res.Label, label) || !slices.Equal(res.Head, head) || !slices.Equal(res.LabelSizes(), sizes) {
				t.Fatalf("%s, %d workers: Last-CC's Label, Head or LabelSizes differ from the full walk's", in.name, p)
			}
			e.Close()
		}
	}
}
