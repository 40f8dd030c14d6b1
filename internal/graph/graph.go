// Package graph provides the compressed-sparse-row (CSR) graph substrate
// shared by every algorithm in this repository: construction from edge
// lists, symmetrization, parallel BFS, statistics, and a simple binary
// interchange format.
//
// Vertices are int32 ids in [0, N). Graphs are undirected and stored with
// both arc directions in the adjacency array, matching the paper's setting
// ("for directed graphs, we symmetrize them to test BCC"). Self-loops and
// parallel edges are permitted by the algorithms (they never affect
// biconnectivity beyond the trivial ways) but can be removed with Simplify.
package graph

import (
	"fmt"
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
// lists the neighbors of v. For an undirected edge {u,w} both (u→w) and
// (w→u) arcs are present, so len(Adj) == 2·NumEdges().
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

// ForArcSegments walks every arc of g in parallel on e with degree-aware
// blocking: the *arc* array is partitioned into blocks of about grain
// arcs — not the vertex range — so a power-law hub with millions of
// neighbors is spread over many blocks (claimed dynamically by the worker
// pool) instead of serializing one vertex block. Each block locates its
// first vertex by binary search on the offset array and then walks arcs
// and vertex boundaries together, invoking seg(v, adj) for each maximal
// run of arcs with source v inside the block (adj is the corresponding
// sub-slice of g.Adj, so the hot per-arc loop lives in the caller with v
// fixed — one indirect call per segment, none per arc). A vertex whose
// arcs span blocks gets one seg call per block.
func (g *Graph) ForArcSegments(e *parallel.Exec, grain int, seg func(v V, adj []V)) {
	nArcs := g.NumArcs()
	if nArcs == 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	nb := (nArcs + grain - 1) / grain
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			alo, ahi := b*grain, (b+1)*grain
			if ahi > nArcs {
				ahi = nArcs
			}
			// First vertex whose arc range contains alo.
			v := V(sort.Search(int(g.N), func(x int) bool {
				return g.Offsets[x+1] > int32(alo)
			}))
			a := alo
			for a < ahi {
				for int(g.Offsets[v+1]) <= a {
					v++
				}
				vEnd := int(g.Offsets[v+1])
				if vEnd > ahi {
					vEnd = ahi
				}
				seg(v, g.Adj[a:vEnd])
				a = vEnd
			}
		}
	})
}

// FromEdges builds a symmetric CSR graph over n vertices from the given
// undirected edge list. Both arc directions are inserted for every edge.
// Equivalent to FromEdgesScratch with a nil arena.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	return FromEdgesScratch(n, edges, nil)
}

// FromEdgesScratch is FromEdges drawing its temporaries from sc (which may
// be nil). Equivalent to FromEdgesIn with a nil execution context.
func FromEdgesScratch(n int, edges []Edge, sc *Scratch) (*Graph, error) {
	return FromEdgesIn(nil, n, edges, sc)
}

// FromEdgesIn is FromEdges running on the execution context e (nil =
// default) and drawing its temporaries from sc (which may be nil).
// Construction is parallel and atomic-free: the edge list is cut
// into one contiguous chunk per worker, each worker counts degrees into a
// private histogram, the histograms are merged by a prefix-sum pass that
// also assigns every worker a disjoint scatter range per vertex, and each
// worker re-scans its chunk writing arcs without synchronization. Neighbor
// lists are then sorted, so the output is deterministic (and identical to
// the historical atomic-scatter construction).
func FromEdgesIn(e *parallel.Exec, n int, edges []Edge, sc *Scratch) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if int64(len(edges))*2 >= int64(1)<<31 {
		return nil, fmt.Errorf("graph: %d edges exceeds int32 arc capacity", len(edges))
	}
	bad := parallel.ReduceIn(e, len(edges), parallel.DefaultGrain, -1,
		func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				e := edges[i]
				if e.U < 0 || int(e.U) >= n || e.W < 0 || int(e.W) >= n {
					return i
				}
			}
			return -1
		},
		func(a, b int) int {
			if a >= 0 {
				return a
			}
			return b
		})
	if bad >= 0 {
		e := edges[bad]
		return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.W, n)
	}
	offsets := make([]int32, n+1)
	if n == 0 || len(edges) == 0 {
		return &Graph{N: int32(n), Offsets: offsets, Adj: []V{}}, nil
	}

	// One contiguous edge chunk per worker. Extra workers each cost an
	// n-sized histogram, so cap their number at what the edge count can
	// amortize (keeps scratch memory O(n + m)) and at a constant. When the
	// cap would strand most workers — a very sparse graph on a many-core
	// machine — the atomic-cursor scatter parallelizes better than a
	// 2-worker histogram pass; take that path instead (the neighbor sort
	// makes the output identical either way).
	p := e.Procs()
	nw := p
	if lim := 1 + len(edges)/n; nw > lim {
		nw = lim
	}
	if nw > 16 {
		nw = 16
	}
	if nw < 1 {
		nw = 1
	}
	if p > 2*nw {
		return fromEdgesAtomic(e, n, edges, offsets), nil
	}
	chunk := (len(edges) + nw - 1) / nw
	nw = (len(edges) + chunk - 1) / chunk

	degW := sc.GetInt32(nw * n)
	parallel.FillIn(e, degW, 0)
	e.ForGrain(nw, 1, func(w int) {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		d := degW[w*n : (w+1)*n]
		for i := lo; i < hi; i++ {
			d[edges[i].U]++
			d[edges[i].W]++
		}
	})
	// Per-vertex totals, then the offset scan.
	e.For(n, func(v int) {
		var s int32
		for w := 0; w < nw; w++ {
			s += degW[w*n+v]
		}
		offsets[v] = s
	})
	total := prim.ExclusiveScanInt32In(e, offsets)
	// Turn each histogram row into that worker's scatter cursors: worker w
	// writes v's arcs at offsets[v] plus the counts of earlier workers.
	e.For(n, func(v int) {
		run := offsets[v]
		for w := 0; w < nw; w++ {
			idx := w*n + v
			c := degW[idx]
			degW[idx] = run
			run += c
		}
	})
	adj := make([]V, total)
	e.ForGrain(nw, 1, func(w int) {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		cur := degW[w*n : (w+1)*n]
		for i := lo; i < hi; i++ {
			u, x := edges[i].U, edges[i].W
			adj[cur[u]] = x
			cur[u]++
			adj[cur[x]] = u
			cur[x]++
		}
	})
	sc.PutInt32(degW)
	g := &Graph{N: int32(n), Offsets: offsets, Adj: adj}
	g.sortAdjacency(e)
	return g, nil
}

// fromEdgesAtomic is the fallback CSR construction for the regime where
// per-worker histograms would cap parallelism (Procs far above the
// memory-amortized worker limit): atomic degree counting and atomic-cursor
// scatter over all workers. After the neighbor sort its output is
// identical to the histogram path's. offsets is the caller's zeroed
// (n+1)-array, filled in place.
func fromEdgesAtomic(e *parallel.Exec, n int, edges []Edge, offsets []int32) *Graph {
	e.ForBlock(len(edges), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&offsets[edges[i].U], 1)
			atomic.AddInt32(&offsets[edges[i].W], 1)
		}
	})
	total := prim.ExclusiveScanInt32In(e, offsets)
	adj := make([]V, total)
	cursor := make([]int32, n)
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		copy(cursor[lo:hi], offsets[lo:hi])
	})
	e.ForBlock(len(edges), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, w := edges[i].U, edges[i].W
			adj[atomic.AddInt32(&cursor[u], 1)-1] = w
			adj[atomic.AddInt32(&cursor[w], 1)-1] = u
		}
	})
	g := &Graph{N: int32(n), Offsets: offsets, Adj: adj}
	g.sortAdjacency(e)
	return g
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

// sortAdjacency sorts each neighbor list so that graph construction is
// deterministic regardless of the parallel scatter order.
func (g *Graph) sortAdjacency(e *parallel.Exec) {
	e.ForBlock(int(g.N), 256, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			prim.SortInt32Small(g.Adj[g.Offsets[v]:g.Offsets[v+1]])
		}
	})
}

// Edges returns the undirected edge list (u <= w once per edge; self-loops
// once). Mostly for tests and verification.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := V(0); v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				out = append(out, Edge{v, w})
			}
		}
	}
	// Self-loops appear twice in adjacency; emit each once.
	for v := V(0); v < g.N; v++ {
		c := 0
		for _, w := range g.Neighbors(v) {
			if w == v {
				c++
			}
		}
		for i := 0; i < c/2; i++ {
			out = append(out, Edge{v, v})
		}
	}
	return out
}

// Simplify returns a copy of g with self-loops and parallel edges removed.
// Adjacency lists are already sorted, so duplicates are adjacent: a single
// count-scan-fill pass builds the simple CSR directly, with no hash map and
// no intermediate edge list.
func (g *Graph) Simplify() *Graph {
	n := int(g.N)
	offsets := make([]int32, n+1)
	parallel.For(n, func(v int) {
		prev := int32(-1)
		var c int32
		for _, w := range g.Neighbors(V(v)) {
			if w != V(v) && w != prev {
				c++
				prev = w
			}
		}
		offsets[v] = c
	})
	total := prim.ExclusiveScanInt32(offsets)
	adj := make([]V, total)
	parallel.For(n, func(v int) {
		o := offsets[v]
		prev := int32(-1)
		for _, w := range g.Neighbors(V(v)) {
			if w != V(v) && w != prev {
				adj[o] = w
				o++
				prev = w
			}
		}
	})
	return &Graph{N: g.N, Offsets: offsets, Adj: adj}
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
