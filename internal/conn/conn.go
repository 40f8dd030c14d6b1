// Package conn implements parallel graph connectivity with LDD-UF-JTB
// (Thm. 5.1 of the paper): a low-diameter decomposition shrinks the graph
// into clusters, then a concurrent union-find (Jayanti–Tarjan–Boix-Adserà
// style) unions the cut edges. The paper's O(n+m) expected work rests on
// MPX's O(βm) cut edges, and internal/ldd starts its vertices in MPX's
// order: on the benchmark's seed-7 inputs it cuts 1 of RMAT-16-8's 524,033
// edges and 5.5% of the 360×360 sampled grid's, where starting vertex v
// at round ⌊δ_v⌋ cut 84.3% and 40.9% (see the ldd package doc). The
// cluster trees' edges, n minus the number of clusters, are unioned
// first, then the cut edges. FAST-BCC runs it once, on the input graph
// (First-CC), producing a spanning forest as a by-product; Last-CC streams
// the skeleton arcs into a union-find of its own. The edge Filter restricts
// a run to a subgraph without materializing it: the GBBS-style baseline
// (internal/bfsbcc) runs on its implicit skeleton that way. The
// hash-bag/local-search LDD optimization the paper ablates in Fig. 6 is
// the LocalSearch toggle.
package conn

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ldd"
	"repro/internal/parallel"
	"repro/internal/prim"
	"repro/internal/uf"
)

// Options configures Connectivity.
type Options struct {
	// Seed drives LDD shifts.
	Seed uint64
	// LocalSearch enables the hash-bag/local-search LDD optimization
	// (the paper's "Opt" variant).
	LocalSearch bool
	// Filter, when non-nil, restricts connectivity to edges with
	// Filter(u,w) true. Must be symmetric.
	Filter func(u, w int32) bool
	// WantForest requests a spanning forest of the (filtered) graph.
	WantForest bool
	// Scratch, when non-nil, supplies the large temporaries (union-find
	// parents, component labels, LDD state, the forest buffer). The
	// returned Result's Comp and Forest slices are then arena-backed:
	// the caller owns them and is responsible for returning them.
	Scratch *graph.Scratch
	// Exec is the execution context parallel loops run on (nil = the
	// process-global default).
	Exec *parallel.Exec
}

// Result is the output of Connectivity.
type Result struct {
	// Comp[v] is the component representative of v (Comp[r] == r).
	Comp []int32
	// NumComp is the number of connected components.
	NumComp int
	// Forest holds spanning forest edges when requested: exactly
	// n - NumComp edges, forming a forest that spans every component.
	Forest []graph.Edge
}

// Connectivity computes the connected components of g under opt.
func Connectivity(g *graph.Graph, opt Options) *Result {
	n := int(g.N)
	sc := opt.Scratch
	e := opt.Exec
	dec := ldd.Decompose(g, ldd.Options{
		Seed:        opt.Seed,
		LocalSearch: opt.LocalSearch,
		Filter:      opt.Filter,
		Scratch:     sc,
		Exec:        e,
	})
	ufbuf := sc.GetInt32(n)
	e.Iota(ufbuf, 0)
	u := uf.Wrap(ufbuf)
	// Forest edges are collected into one arena buffer through an atomic
	// write cursor (a spanning forest has at most n-1 edges). Each block
	// stages its edges in a prim.Appender and advances the cursor once per
	// batch, not once per edge: the per-edge add made the workers pass the
	// cursor's cache line back and forth beside every union (see ldd's
	// expandOneHop for the measurement). With one worker the loops run
	// inline, so the sequential edge order is cluster trees first (by
	// decreasing child), then cross edges.
	forest, cur := forestBuf(sc, n, opt.WantForest)
	// Cluster parent edges connect each cluster; they are tree edges by
	// construction (each union merges two distinct sets regardless of
	// order), so all of them join the forest. The walk runs from the top
	// id down: uf.UF roots a set at its largest member, so a child joins
	// under the root its parent's set already has instead of becoming a
	// new root that every later union in the cluster climbs through.
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		out := prim.NewAppender(forest, cur)
		for i := lo; i < hi; i++ {
			v := n - 1 - i
			if p := dec.Parent[v]; p != -1 {
				u.Union(int32(v), p)
				if forest != nil {
					out.Push(graph.Edge{U: p, W: int32(v)})
				}
			}
		}
		out.Flush()
	})
	// Union cut edges (endpoints in different clusters); the edges whose
	// union merged two sets join the forest.
	unionEdges(g, u, opt, func(v, w int32) bool {
		return dec.Center[v] != dec.Center[w]
	}, forest, cur)
	res := finish(e, g, u, sc)
	if opt.WantForest {
		res.Forest = forest[:cur.Load()]
	}
	sc.PutInt32(ufbuf, dec.Center, dec.Parent)
	return res
}

// forestBuf returns the cursor-collected forest buffer for a graph of n
// vertices, or nil when no forest is wanted. The buffer is arena-backed;
// its ownership passes to the caller with the Forest result.
func forestBuf(sc *graph.Scratch, n int, want bool) ([]graph.Edge, *atomic.Int64) {
	if !want {
		return nil, new(atomic.Int64)
	}
	size := n - 1
	if size < 0 {
		size = 0
	}
	return sc.GetEdges(size), new(atomic.Int64)
}

// unionEdges unions every undirected edge passing opt.Filter and the extra
// predicate. Edges whose Union succeeded — a spanning forest of the
// processed edge set relative to the current union-find state — are
// appended through the atomic cursor cur to forest when it is non-nil, in
// per-block batches. The traversal is a degree-aware blocked walk over the
// arc array (see graph.ArcSegments), so hubs never serialize one vertex
// block.
func unionEdges(g *graph.Graph, u *uf.UF, opt Options, extra func(v, w int32) bool, forest []graph.Edge, cur *atomic.Int64) {
	collect := opt.WantForest && forest != nil
	const arcGrain = 4096
	opt.Exec.ForBlock(g.NumArcs(), arcGrain, func(lo, hi int) {
		out := prim.NewAppender(forest, cur)
		for v, adj := range g.ArcSegments(lo, hi) {
			// Tight per-vertex segment: v is fixed for the range.
			for _, w := range adj {
				if v >= w { // each undirected edge once; skips self-loops
					continue
				}
				if !extra(v, w) {
					continue
				}
				if opt.Filter != nil && !opt.Filter(v, w) {
					continue
				}
				if u.Union(v, w) && collect {
					out.Push(graph.Edge{U: v, W: w})
				}
			}
		}
		out.Flush()
	})
}

// finish flattens the union-find into component labels.
func finish(e *parallel.Exec, g *graph.Graph, u *uf.UF, sc *graph.Scratch) *Result {
	n := int(g.N)
	comp := sc.GetInt32(n)
	e.For(n, func(v int) {
		comp[v] = u.Find(int32(v))
	})
	roots := parallel.SumInt64In(e, n, parallel.DefaultGrain, func(lo, hi int) int64 {
		c := int64(0)
		for v := lo; v < hi; v++ {
			if comp[v] == int32(v) {
				c++
			}
		}
		return c
	})
	return &Result{Comp: comp, NumComp: int(roots)}
}

// Normalize remaps component representatives to dense ids 0..NumComp-1 and
// returns the dense labels. The mapping is by increasing representative id,
// so it is deterministic.
func (r *Result) Normalize() []int32 { return r.NormalizeIn(nil) }

// NormalizeIn is Normalize running on the execution context e.
func (r *Result) NormalizeIn(e *parallel.Exec) []int32 {
	n := len(r.Comp)
	dense := make([]int32, n)
	isRoot := make([]int32, n)
	e.For(n, func(v int) {
		if r.Comp[v] == int32(v) {
			isRoot[v] = 1
		}
	})
	prim.ExclusiveScanInt32In(e, isRoot)
	e.For(n, func(v int) {
		dense[v] = isRoot[r.Comp[v]]
	})
	return dense
}
