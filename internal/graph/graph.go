// Package graph provides the compressed-sparse-row (CSR) graph substrate
// shared by every algorithm in this repository: construction from edge
// lists, symmetrization, patching by edge deltas, parallel BFS, and a
// simple binary interchange format.
//
// Vertices are int32 ids in [0, N). Graphs are undirected and stored with
// both arc directions in the adjacency array, matching the paper's setting
// ("for directed graphs, we symmetrize them to test BCC"). Self-loops and
// parallel edges are permitted: they never affect biconnectivity beyond
// the trivial ways.
//
// FromEdgesIn builds the CSR on one of two paths, picked by the input
// alone: a canonical edge list (U ≤ W, sorted by (U, W), as Edges returns
// it) is scattered once straight into the adjacency, and any other list is
// scattered into scratch and transposed. Both give the same graph.
package graph

import (
	"fmt"
	"iter"
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/prim"
)

// V is the vertex id type.
type V = int32

// Edge is an undirected edge between U and W.
type Edge struct {
	U, W V
}

// Graph is an undirected graph in CSR form. Adj[Offsets[v]:Offsets[v+1]]
// lists the neighbors of v in ascending order. For an undirected edge
// {u,w} both (u→w) and (w→u) arcs are present, so len(Adj) ==
// 2·NumEdges(). Every constructor in this package keeps both properties,
// and ReadBinary rejects a file that breaks either.
type Graph struct {
	N       int32
	Offsets []int32
	Adj     []V
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return int(g.N) }

// NumArcs returns the number of directed arcs (2m for a symmetric graph).
func (g *Graph) NumArcs() int { return len(g.Adj) }

// NumEdges returns the number of undirected edges m (arcs/2).
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// Neighbors returns the adjacency slice of v.
func (g *Graph) Neighbors(v V) []V {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// Degree returns the degree of v (counting both endpoints of self-loops).
func (g *Graph) Degree(v V) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// ArcSegments iterates over the arcs Adj[lo:hi] one segment at a time:
// it yields (v, adj) for each maximal run of arcs with source v inside the
// range, where adj is the corresponding sub-slice of g.Adj, so the hot
// per-arc loop lives in the caller with v fixed. The first source is found
// by binary search on the offset array, and a vertex whose arcs straddle lo
// or hi yields only the part inside the range.
//
// Parallel callers partition the *arc* array, not the vertex range:
//
//	e.ForBlock(g.NumArcs(), grain, func(lo, hi int) {
//		for v, adj := range g.ArcSegments(lo, hi) { ... }
//	})
//
// so a power-law hub with millions of neighbors is spread over many
// blocks instead of serializing one vertex block, and each block body is
// one scope that can carry block-local state (such as a prim.Appender)
// across its segments. The iterator inlines into such a body, so the
// walk costs no call per segment and block-local state stays on the
// stack.
func (g *Graph) ArcSegments(lo, hi int) iter.Seq2[V, []V] {
	return func(yield func(V, []V) bool) {
		v := V(sort.Search(int(g.N), func(x int) bool {
			return g.Offsets[x+1] > int32(lo)
		}))
		for a := lo; a < hi; {
			for int(g.Offsets[v+1]) <= a {
				v++
			}
			end := min(int(g.Offsets[v+1]), hi)
			if !yield(v, g.Adj[a:end]) {
				return
			}
			a = end
		}
	}
}

// FromEdges builds a symmetric CSR graph over n vertices from the given
// undirected edge list. Both arc directions are inserted for every edge.
// Equivalent to FromEdgesIn with a nil execution context and arena.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	return FromEdgesIn(nil, n, edges, nil)
}

// FromEdgesIn is FromEdges running on the execution context e (nil =
// default) and drawing its temporaries from sc (which may be nil).
// Construction is parallel and atomic-free: the edge list is cut into one
// contiguous chunk per worker, each worker counts degrees into a private
// histogram, the histograms are merged by a prefix-sum pass that also
// assigns every worker a disjoint scatter range per vertex, and each
// worker re-scans its chunk writing both arcs of each of its edges
// without synchronization. The output is deterministic and identical to
// the historical atomic-scatter construction whatever the input order;
// which of two paths produces it depends on the input alone.
//
// The validation pass, which reads every edge for its range check, also
// compares each edge with its predecessor. A canonical list — U ≤ W for
// every edge and (U, W) nondecreasing, the order Edges returns — is
// scattered straight into the returned adjacency: the arcs into x arrive
// as its smaller neighbors in U order, then its self-loops, then its
// larger neighbors in W order, and the workers' rows concatenate in input
// order, so every list comes out ascending. Any other list is scattered
// into a scratch buffer, in no particular order within a list, and one
// stable transpose of that buffer (see transpose) writes the final
// adjacency with every list ascending.
func FromEdgesIn(e *parallel.Exec, n int, edges []Edge, sc *Scratch) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if int64(len(edges))*2 >= int64(1)<<31 {
		return nil, fmt.Errorf("graph: %d edges exceeds int32 arc capacity", len(edges))
	}
	ck := parallel.ReduceIn(e, len(edges), parallel.DefaultGrain, edgeCheck{bad: -1, canonical: true},
		func(lo, hi int) edgeCheck {
			// The order check stops at the range's first non-canonical
			// edge: on a random list its branches would mispredict on
			// every edge.
			i := lo
			for ; i < hi; i++ {
				e := edges[i]
				if e.U < 0 || int(e.U) >= n || e.W < 0 || int(e.W) >= n {
					return edgeCheck{bad: i}
				}
				if e.U > e.W || (i > 0 && lessEdge(e, edges[i-1])) {
					break
				}
			}
			canonical := i == hi
			for ; i < hi; i++ {
				if e := edges[i]; e.U < 0 || int(e.U) >= n || e.W < 0 || int(e.W) >= n {
					return edgeCheck{bad: i}
				}
			}
			return edgeCheck{bad: -1, canonical: canonical}
		},
		func(a, b edgeCheck) edgeCheck {
			if a.bad >= 0 {
				return a
			}
			if b.bad >= 0 {
				return b
			}
			return edgeCheck{bad: -1, canonical: a.canonical && b.canonical}
		})
	if ck.bad >= 0 {
		e := edges[ck.bad]
		return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.W, n)
	}
	offsets := make([]int32, n+1)
	if n == 0 || len(edges) == 0 {
		return &Graph{N: int32(n), Offsets: offsets, Adj: []V{}}, nil
	}

	// One contiguous edge chunk per worker. When the worker cap strands
	// most workers — a very sparse graph on a many-core machine — the
	// atomic-cursor scatter parallelizes better than a 2-worker histogram
	// pass; take that path instead (the transpose makes the output
	// identical either way). A canonical list always takes the histogram
	// scatter, the one that keeps input order.
	p := e.Procs()
	nw := csrWorkers(p, n, 2*len(edges))
	var src []V
	var cur []int32
	if ck.canonical || p <= 2*nw {
		chunk := (len(edges) + nw - 1) / nw
		nw = (len(edges) + chunk - 1) / chunk
		cur = sc.GetInt32(nw * n)
		histogramCursors(e, n, edges, offsets, nw, chunk, cur)
		if ck.canonical {
			adj := make([]V, offsets[n])
			scatterHistogram(e, n, edges, nw, chunk, cur, adj)
			sc.PutInt32(cur)
			return &Graph{N: int32(n), Offsets: offsets, Adj: adj}, nil
		}
		src = sc.GetInt32(int(offsets[n]))
		scatterHistogram(e, n, edges, nw, chunk, cur, src)
	} else {
		cur = sc.GetInt32(nw * n)
		src = scatterAtomic(e, n, edges, offsets, cur[:n], sc)
	}
	adj := make([]V, len(src))
	if !transpose(e, offsets, src, adj, nw, cur) {
		panic("graph: edge scatter produced asymmetric arcs")
	}
	sc.PutInt32(cur, src)
	return &Graph{N: int32(n), Offsets: offsets, Adj: adj}, nil
}

// edgeCheck is the validation pass's result over a range of edges: the
// first edge out of range (-1 for none) and, when there is none, whether
// the range is canonical, its first edge compared with its predecessor.
type edgeCheck struct {
	bad       int
	canonical bool
}

// lessEdge orders edges by (U, W).
func lessEdge(a, b Edge) bool {
	return a.U < b.U || (a.U == b.U && a.W < b.W)
}

// csrWorkers is the worker count of the edge scatter and of the transpose
// for p workers, n > 0 vertices and the given number of arcs. Each worker
// costs an n-sized histogram or cursor row, so the count is capped at
// what the arcs can amortize (keeps scratch memory O(n + m)) and at a
// constant.
func csrWorkers(p, n, arcs int) int {
	return min(p, 1+arcs/(2*n), 16)
}

// histogramCursors counts every edge's two arcs into offsets, the
// caller's zeroed (n+1)-array, turned into the CSR offsets in place, and
// turns degW into the per-worker scatter cursors: worker w handles edges
// [w·chunk, (w+1)·chunk) through the row degW[w·n : (w+1)·n], and writes
// v's arcs from offsets[v] plus the counts of earlier workers.
func histogramCursors(e *parallel.Exec, n int, edges []Edge, offsets []int32, nw, chunk int, degW []int32) {
	parallel.FillIn(e, degW, 0)
	e.ForGrain(nw, 1, func(w int) {
		lo, hi := w*chunk, min((w+1)*chunk, len(edges))
		d := degW[w*n : (w+1)*n]
		for i := lo; i < hi; i++ {
			d[edges[i].U]++
			d[edges[i].W]++
		}
	})
	// Per-vertex totals, then the offset scan.
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var s int32
			for w := 0; w < nw; w++ {
				s += degW[w*n+v]
			}
			offsets[v] = s
		}
	})
	prim.ExclusiveScanInt32In(e, offsets)
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			run := offsets[v]
			for w := 0; w < nw; w++ {
				idx := w*n + v
				c := degW[idx]
				degW[idx] = run
				run += c
			}
		}
	})
}

// scatterHistogram writes every edge's two arcs into dst through the
// cursors histogramCursors left in cur, each worker its own chunk of
// edges in input order: grouped by source vertex, and within a group in
// the order the edges list them.
func scatterHistogram(e *parallel.Exec, n int, edges []Edge, nw, chunk int, cur []int32, dst []V) {
	e.ForGrain(nw, 1, func(w int) {
		lo, hi := w*chunk, min((w+1)*chunk, len(edges))
		c := cur[w*n : (w+1)*n]
		for i := lo; i < hi; i++ {
			u, x := edges[i].U, edges[i].W
			dst[c[u]] = x
			c[u]++
			dst[c[x]] = u
			c[x]++
		}
	})
}

// scatterAtomic is histogramCursors plus scatterHistogram into a scratch
// buffer, for the regime where per-worker histograms would cap
// parallelism (Procs far above the memory-amortized worker limit): atomic
// degree counting and atomic-cursor scatter over all workers, in no
// particular order within a list. cursor is scratch of n int32.
func scatterAtomic(e *parallel.Exec, n int, edges []Edge, offsets, cursor []int32, sc *Scratch) []V {
	e.ForBlock(len(edges), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&offsets[edges[i].U], 1)
			atomic.AddInt32(&offsets[edges[i].W], 1)
		}
	})
	total := prim.ExclusiveScanInt32In(e, offsets)
	src := sc.GetInt32(int(total))
	parallel.CopyIn(e, cursor, offsets[:n])
	e.ForBlock(len(edges), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, w := edges[i].U, edges[i].W
			src[atomic.AddInt32(&cursor[u], 1)-1] = w
			src[atomic.AddInt32(&cursor[w], 1)-1] = u
		}
	})
	return src
}

// transpose writes into dst the transpose of the arcs src holds under
// offsets: dst's list of x holds every v with an arc v→x, in increasing
// order of v, each as often as that arc repeats. Each of nw workers
// walks an arc-balanced range of source vertices in increasing order. A
// first pass counts the range's arcs into every target; a prefix over the
// workers turns the counts into per-worker cursors into the target lists;
// a second pass appends v to each target's list through the worker's
// cursors. Earlier workers own smaller sources, so every list comes out
// ascending without a sort. cur is scratch of nw·n int32.
//
// The transpose of a symmetric arc set is its own sorted adjacency and
// fits offsets. transpose reports false, with dst unspecified and never
// written out of bounds, when some vertex receives a different number of
// arcs than it sends, which no symmetric arc set can do.
func transpose(e *parallel.Exec, offsets []int32, src, dst []V, nw int, cur []int32) bool {
	n := len(offsets) - 1
	// bound[w] is the first source of worker w: the first vertex whose
	// arcs start at or after w/nw of all arcs.
	bound := make([]int, nw+1)
	for w := 1; w < nw; w++ {
		target := int32(w * len(src) / nw)
		bound[w] = sort.Search(n, func(v int) bool { return offsets[v] >= target })
	}
	bound[nw] = n
	e.ForGrain(nw, 1, func(w int) {
		c := cur[w*n : (w+1)*n]
		clear(c)
		for _, x := range src[offsets[bound[w]]:offsets[bound[w+1]]] {
			c[x]++
		}
	})
	fits := parallel.ReduceIn(e, n, parallel.DefaultGrain, true,
		func(lo, hi int) bool {
			ok := true
			for x := lo; x < hi; x++ {
				run := offsets[x]
				for w := 0; w < nw; w++ {
					idx := w*n + x
					c := cur[idx]
					cur[idx] = run
					run += c
				}
				ok = ok && run == offsets[x+1]
			}
			return ok
		},
		func(a, b bool) bool { return a && b })
	if !fits {
		return false
	}
	e.ForGrain(nw, 1, func(w int) {
		c := cur[w*n : (w+1)*n]
		for v := bound[w]; v < bound[w+1]; v++ {
			for _, x := range src[offsets[v]:offsets[v+1]] {
				i := c[x]
				dst[i] = V(v)
				c[x] = i + 1
			}
		}
	})
	return true
}

// MustFromEdges is FromEdges that panics on error; for tests and generators
// whose inputs are valid by construction.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Edges returns the undirected edge list in canonical order: u <= w once
// per edge, sorted by (u, w), each self-loop once per pair of arcs. This
// is the order FromEdgesIn scatters without a transpose.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := V(0); v < g.N; v++ {
		// v's list is ascending, so its self-loop arcs sit between its
		// smaller and its larger neighbors; emit every second one.
		self := false
		for _, w := range g.Neighbors(v) {
			switch {
			case w > v:
				out = append(out, Edge{v, w})
			case w == v:
				if self {
					out = append(out, Edge{v, v})
				}
				self = !self
			}
		}
	}
	return out
}

// HasEdge reports whether the undirected edge {u,w} exists (binary search;
// adjacency lists are sorted).
func (g *Graph) HasEdge(u, w V) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	return i < len(nb) && nb[i] == w
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	var m int64
	for v := V(0); v < g.N; v++ {
		if d := int64(g.Degree(v)); d > m {
			m = d
		}
	}
	return int(m)
}
