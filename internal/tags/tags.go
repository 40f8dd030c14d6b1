// Package tags computes the per-vertex tag arrays of the paper's Tagging
// step (Sec. 4.1): w1/w2 folded over non-tree edges, and low/high obtained
// from 1-D range min/max queries over the Euler-tour-ordered w1/w2 arrays
// (the max as the complement of a min over ^w2). Both FAST-BCC and the
// faithful Tarjan–Vishkin implementation build on it.
package tags

import (
	"repro/internal/etour"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rmq"
)

// Tags bundles the vertex tags of Alg. 1 together with the edge-type
// predicates derived from them.
type Tags struct {
	// Parent[v] is v's parent in the rooted spanning forest (-1 for roots).
	Parent []int32
	// First/Last are Euler tour first/last appearance positions.
	First, Last []int32
	// Low/High are the range min/max of w1/w2 over each subtree (Sec. 3.2).
	Low, High []int32
}

// Compute derives the tags from a rooted forest. g supplies the non-tree
// edges folded into w1/w2; parallel copies of tree edges are classified as
// tree edges, which provably leaves every fence predicate unchanged.
// Equivalent to ComputeIn with a nil execution context and arena.
func Compute(g *graph.Graph, rt *etour.Rooted) *Tags {
	return ComputeIn(nil, g, rt, nil)
}

// ComputeIn is Compute running on the execution context e (nil = the
// process-global default) and drawing its temporaries — and the returned
// Low and High arrays — from sc (which may be nil). The caller owns the
// arena-backed Low/High; First/Last/Parent alias the Rooted input.
//
// w1[v] and w2[v], the min and max of first[] over v and its non-tree
// neighbors, are folded in registers over blocks of 256 vertices. Each
// vertex belongs to one block, so one plain store per vertex writes them,
// isolated vertices included, and no arc costs an atomic write. Low is a
// range minimum over w1 in tour order and High the complement of a range
// minimum over ^w2, so both go through rmq's one min kernel.
func ComputeIn(e *parallel.Exec, g *graph.Graph, rt *etour.Rooted, sc *graph.Scratch) *Tags {
	n := int(g.N)
	first, last, parent := rt.First, rt.Last, rt.Parent
	w1 := sc.GetInt32(n)
	w2 := sc.GetInt32(n)
	e.ForBlock(n, 256, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			pv := parent[v]
			lo1, hi1 := first[v], first[v]
			for _, w := range g.Neighbors(v) {
				if w == v || w == pv || parent[w] == v {
					continue // self-loop or tree edge
				}
				f := first[w]
				lo1 = min(lo1, f)
				hi1 = max(hi1, f)
			}
			w1[v], w2[v] = lo1, hi1
		}
	})
	// a2 holds ^w2: ^x = -x-1 reverses the order of int32 values and
	// cannot overflow, so max(w2[range]) = ^min(a2[range]).
	a1 := sc.GetInt32(len(rt.Tour))
	a2 := sc.GetInt32(len(rt.Tour))
	e.ForBlock(len(rt.Tour), parallel.DefaultGrain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			v := rt.Tour[t]
			a1[t] = w1[v]
			a2[t] = ^w2[v]
		}
	})
	qlow := rmq.NewMinArena(e, a1, sc)
	qhigh := rmq.NewMinArena(e, a2, sc)
	low := sc.GetInt32(n)
	high := sc.GetInt32(n)
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			low[v] = qlow.Query(int(first[v]), int(last[v]))
			high[v] = ^qhigh.Query(int(first[v]), int(last[v]))
		}
	})
	// The RMQ structures (and their references into a1/a2) die here; the
	// last queries above have completed, so the tables and buffers can
	// recirculate through the arena.
	qlow.Free(sc)
	qhigh.Free(sc)
	sc.PutInt32(w1, w2, a1, a2)
	return &Tags{Parent: parent, First: first, Last: last, Low: low, High: high}
}

// IsTreeEdge reports whether {u,v} parallels a spanning tree edge.
func (t *Tags) IsTreeEdge(u, v int32) bool {
	return t.Parent[v] == u || t.Parent[u] == v
}

// Fence implements Alg. 1 line 11: for a tree edge evaluated as if u were
// the parent of v, it holds iff no edge from v's subtree escapes u's
// subtree. Called with the child in the u position it is always false, so
// Fence(u,v) || Fence(v,u) tests "is a fence edge" without knowing the
// orientation.
func (t *Tags) Fence(u, v int32) bool {
	return t.First[u] <= t.Low[v] && t.Last[u] >= t.High[v]
}

// Back implements Alg. 1 line 13: for a non-tree edge it holds iff u is an
// ancestor of v.
func (t *Tags) Back(u, v int32) bool {
	return t.First[u] <= t.First[v] && t.Last[u] >= t.First[v]
}

// Ancestor reports whether u is an ancestor of v (u == v included), via
// the interval nesting of Euler tour positions.
func (t *Tags) Ancestor(u, v int32) bool {
	return t.First[u] <= t.First[v] && t.Last[u] >= t.Last[v]
}

// InSkeleton implements Alg. 1 line 7: the edge {u,v} of G is in the
// skeleton G' iff it is a plain (non-fence) tree edge or a cross edge.
func (t *Tags) InSkeleton(u, v int32) bool {
	if t.IsTreeEdge(u, v) {
		return !t.Fence(u, v) && !t.Fence(v, u)
	}
	return !t.Back(u, v) && !t.Back(v, u)
}
