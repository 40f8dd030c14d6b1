// Package conn implements parallel graph connectivity with LDD-UF-JTB
// (Thm. 5.1 of the paper): a low-diameter decomposition shrinks the graph
// into clusters, then a concurrent union-find (Jayanti–Tarjan–Boix-Adserà
// style) unions the cut edges. The paper's O(n+m) expected work rests on
// MPX's O(βm) cut edges, and internal/ldd starts its vertices in MPX's
// order: on the benchmark's seed-7 inputs it cuts 1 of RMAT-16-8's 524,033
// edges and 5.5% of the 360×360 sampled grid's, where starting vertex v
// at round ⌊δ_v⌋ cut 84.3% and 40.9% (see the ldd package doc). The
// cluster trees' edges, n minus the number of clusters, are unioned
// first, then the cut edges. The cut-edge walk never reads the arcs of
// the dominant cluster, the one DominantSet finds holding the most arcs:
// a cut edge with one end in it is unioned from its other end, every
// other cut edge from its smaller end. Afforest (Sutton, Ben-Nun and
// Barak, IPDPS 2018) and ConnectIt (Dhulipala, Hong and Shun, VLDB 2020)
// finish connectivity by skipping the most frequent component the same
// way. On the seed-7 RMAT-16-8 at seed 0 the largest cluster holds
// 100.0% of the arcs to one decimal (one edge is cut), on the 360×360 grid
// 2.8%. FAST-BCC runs it once, on the input graph (First-CC), producing a
// spanning forest as a by-product; Last-CC streams the skeleton arcs into
// a union-find of its own and skips the set DominantSet picks there too.
// The edge Filter restricts a run to a subgraph without materializing it:
// the GBBS-style baseline (internal/bfsbcc) runs on its implicit skeleton
// that way. The hash-bag/local-search LDD optimization the paper ablates
// in Fig. 6 is the LocalSearch toggle.
package conn

import (
	"slices"
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
	dec := ldd.Decompose(g, ldd.Options{
		Seed:        opt.Seed,
		LocalSearch: opt.LocalSearch,
		Filter:      opt.Filter,
		Scratch:     opt.Scratch,
		Exec:        opt.Exec,
	})
	res := joinClusters(g, dec, DominantSet(g, dec.Center), opt)
	opt.Scratch.PutInt32(dec.Center, dec.Parent)
	return res
}

// joinClusters unions the clusters of dec along their cluster trees, then
// unions the cut edges (endpoints in different clusters), never reading
// the arcs of the cluster whose center is big (-1 skips none).
func joinClusters(g *graph.Graph, dec *ldd.Result, big int32, opt Options) *Result {
	n := int(g.N)
	sc := opt.Scratch
	e := opt.Exec
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
	// decreasing child), then cut edges.
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
	// Cut edges. The union-find's sets are now exactly the clusters, so
	// big's arcs are skipped whole: a cut edge with one end in big is
	// unioned from its other end, every other cut edge from its smaller
	// end, so each is unioned exactly once. The edges whose union merged
	// two sets join the forest. The walk is degree-aware and blocked over
	// the arc array (see graph.ArcSegments), so hubs never serialize one
	// vertex block.
	center := dec.Center
	e.ForBlock(g.NumArcs(), 4096, func(lo, hi int) {
		out := prim.NewAppender(forest, cur)
		for v, adj := range g.ArcSegments(lo, hi) {
			cv := center[v]
			if cv == big {
				continue
			}
			for _, w := range adj {
				cw := center[w]
				if cw == cv || (v > w && cw != big) {
					continue // same cluster (self-loops too), or unioned from w
				}
				if opt.Filter != nil && !opt.Filter(v, w) {
					continue
				}
				if u.Union(v, w) && forest != nil {
					out.Push(graph.Edge{U: v, W: w})
				}
			}
		}
		out.Flush()
	})
	res := finish(e, g, u, sc)
	if opt.WantForest {
		res.Forest = forest[:cur.Load()]
	}
	sc.PutInt32(ufbuf)
	return res
}

// dominantSamples is the number of arcs DominantSet reads.
const dominantSamples = 1024

// DominantSet returns the most frequent value of set[w] over the targets
// w of 1,024 evenly spaced arcs of g, or -1 when g has no arcs. A
// uniformly drawn arc's target is a degree-weighted vertex, so when set
// maps every vertex to its set's id, the result is the set that holds the
// most arcs, whose arcs a union pass over the rest can then skip.
func DominantSet(g *graph.Graph, set []int32) int32 {
	m := len(g.Adj)
	if m == 0 {
		return -1
	}
	var ids [dominantSamples]int32
	for i := range ids {
		ids[i] = set[g.Adj[i*m/dominantSamples]]
	}
	slices.Sort(ids[:])
	best, bestRun := ids[0], 0
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		if j-i > bestRun {
			best, bestRun = ids[i], j-i
		}
		i = j
	}
	return best
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
