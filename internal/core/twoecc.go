package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
	"repro/internal/uf"
)

// TwoECC computes the 2-edge-connected components of g from an existing
// biconnectivity decomposition: vertices are in the same 2ECC iff they are
// connected without crossing a bridge. Returned as dense labels per vertex
// (every vertex gets a label; isolated vertices are singleton components).
//
// This is the bridge-side sibling of the block decomposition: blocks split
// at articulation points, 2ECCs split at bridges. Every bridge is a tree
// edge of any spanning forest, and the forest's other edges connect each
// 2ECC (a forest path between two vertices of one 2ECC that left it would
// cross some bridge twice). So the 2ECCs are the trees of the spanning
// forest minus its bridges: one union-find pass over the n parent edges,
// O(n+m) work (the bridge test scans each child's adjacency at most once)
// and O(n) space, with no pass over the non-tree arcs.
//
// Labels are dense in increasing order of each 2ECC's largest vertex.
func (r *Result) TwoECC(g *graph.Graph) []int32 { return r.TwoECCIn(nil, g) }

// TwoECCIn is TwoECC running on the execution context e (nil = the
// process-global default).
func (r *Result) TwoECCIn(e *parallel.Exec, g *graph.Graph) []int32 {
	label, _ := r.TwoECCBridgesIn(e, g)
	return label
}

// TwoECCBridgesIn is TwoECCIn that also returns the bridge test it runs on
// every tree edge: bridge[v] reports whether (Parent[v], v) is a bridge.
// Every bridge is such an edge, so the flags list them all.
func (r *Result) TwoECCBridgesIn(e *parallel.Exec, g *graph.Graph) (label []int32, bridge []bool) {
	n := len(r.Parent)
	count := r.LabelSizes()
	parent := make([]int32, n)
	e.Iota(parent, 0)
	u := uf.Wrap(parent)
	bridge = make([]bool, n)
	// Walked from the top id down, like every union pass over
	// forest-parent edges (see uf.UF.Union).
	e.For(n, func(i int) {
		v := n - 1 - i
		p := r.Parent[v]
		switch {
		case p == -1:
		case r.isTreeBridge(g, count, int32(v)):
			bridge[v] = true
		default:
			u.Union(int32(v), p)
		}
	})
	// uf.UF roots every set at its largest member, so ranking the roots
	// by a prefix sum orders the labels by each 2ECC's largest vertex.
	rank := make([]int32, n)
	e.For(n, func(v int) {
		if parent[v] == int32(v) {
			rank[v] = 1
		}
	})
	prim.ExclusiveScanInt32In(e, rank)
	label = make([]int32, n)
	e.For(n, func(v int) { label[v] = rank[u.Find(int32(v))] })
	return label, bridge
}
