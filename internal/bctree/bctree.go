// Package bctree builds an immutable connectivity-query index over a
// biconnectivity decomposition (core.Result) — the online half of the
// paper's pipeline. Computing BCC fast is the means; the block-cut tree
// is the standard substrate the applications actually query, and this
// package turns it into O(1)/O(log n) answers.
//
// The index is two rooted forests, both flattened to arrays:
//
//   - The block-cut forest (one node per block, one per articulation
//     point) answers vertex-removal questions: does deleting x disconnect
//     u from v, and which articulation points lie between them.
//   - The bridge forest (one node per 2-edge-connected component, one
//     edge per bridge) answers edge-removal questions: how many bridges
//     separate u from v, and whether they are 2-edge-connected.
//
// Construction is parallel and reuses the pipeline's own machinery. The
// decomposition already fixes both forests' parents. The block-cut
// forest is core.BlockCutTree itself, which keeps its edges only as
// parent pointers: a block hangs below its head's cut node, and a cut
// vertex below the block of its own label. The 2ECC labels come from one
// union-find pass over the spanning forest's parent edges
// (core.Result.TwoECCBridgesIn), whose bridge test marks every bridge on
// the way, and each 2ECC hangs across the bridge above its top vertex,
// written by one parallel pass over the vertices. So no edge list,
// connectivity search or sort is needed, and the Euler tour technique
// (etour.FromParentsIn) tours both forests straight from their parents.
// Per tree-node depths come from a parallel prefix sum over the tour's ±1
// depth deltas, and lowest-common-ancestor queries reduce to a range
// minimum over the tour-ordered depth array (internal/rmq) — the same
// structure the Tagging step uses for low/high.
// Total work is O(n + m); the index retains O(n) words and never aliases
// scratch memory.
//
// All query methods are safe for concurrent use (the index is immutable
// after New) and the scalar queries perform no allocations. Vertex
// arguments must be in [0, NumVertices()); out-of-range ids panic like an
// out-of-range slice index.
package bctree

import (
	"sort"

	"repro/internal/core"
	"repro/internal/etour"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
	"repro/internal/rmq"
)

// Index answers connectivity queries over one graph's decomposition.
type Index struct {
	res *core.Result
	t   *core.BlockCutTree

	// Block-cut forest, rooted by t.Parent. Node ids follow
	// core.BlockCutTree: blocks first, then cuts. nodeOf maps a vertex to
	// the node representing it on tree paths (its cut node if it is an
	// articulation point, else the node of the single block containing
	// it), or -1 for vertices in no block (isolated vertices).
	nodeOf      []int32
	bcFirst     []int32
	bcLast      []int32
	bcDepth     []int32
	bcTourDepth []int32
	bcLCA       *rmq.Min

	// Bridge forest over the 2-edge-connected components. ecc is the
	// dense 2ECC label per vertex; node ids are ecc labels. brEdgeU/W
	// record, per non-root node, the graph endpoints of the bridge to its
	// parent (-1 for roots).
	ecc         []int32
	numBridges  int
	brComp      []int32
	brPar       []int32
	brFirst     []int32
	brDepth     []int32
	brTourDepth []int32
	brLCA       *rmq.Min
	brEdgeU     []int32
	brEdgeW     []int32
}

// New builds the index for g's decomposition r. Equivalent to NewIn with
// a nil execution context.
func New(g *graph.Graph, r *core.Result) *Index { return NewIn(nil, g, r) }

// NewIn is New running on the execution context e (nil = the
// process-global default). r must be the decomposition of g.
func NewIn(e *parallel.Exec, g *graph.Graph, r *core.Result) *Index {
	n := int(g.N)
	if len(r.Label) != n {
		panic("bctree: result does not match graph (vertex counts differ)")
	}
	// Populate the Result's lazy topology caches on this build's context
	// (no-op when a serving constructor precomputed them already): the
	// index shares the cached tree, and a published snapshot must never
	// hit the lazy compute path from a query.
	r.PrecomputeTopologyIn(e)
	x := &Index{res: r, t: r.BlockCutTree()}
	t := x.t

	// ---- Block-cut forest: tour, depths, LCA ----------------------------
	// nodeOf: cut vertices map to their cut node, other non-roots to the
	// block of their label, and a spanning root that is not a cut vertex
	// to the one block it heads, a root of t (-1 when it heads none: an
	// isolated vertex).
	x.nodeOf = make([]int32, n)
	e.For(n, func(v int) {
		switch {
		case t.CutNode[v] != -1:
			x.nodeOf[v] = t.CutNode[v]
		case r.Parent[v] != -1:
			x.nodeOf[v] = t.BlockOf[r.Label[v]]
		default:
			x.nodeOf[v] = -1
		}
	})
	e.For(r.NumLabels, func(l int) {
		if b := t.BlockOf[l]; b != -1 && t.Parent[b] == -1 {
			x.nodeOf[r.Head[l]] = b
		}
	})
	// t.Parent is the Result's, shared by every index built on it and
	// mapped read-only in a recovered snapshot; FromParentsIn only reads it.
	rt := etour.FromParentsIn(e, t.Parent)
	x.bcFirst, x.bcLast = rt.First, rt.Last
	x.bcTourDepth = tourDepths(e, rt)
	x.bcDepth = nodeDepths(e, rt.First, x.bcTourDepth)
	x.bcLCA = rmq.NewMinIn(e, x.bcTourDepth)

	// ---- Bridge forest: 2ECC labels, parents, tour, depths, LCA ---------
	// Each 2ECC is a subtree of the spanning forest whose top vertex is a
	// spanning root or the child end of a bridge, and contracting every
	// 2ECC leaves one tree edge per bridge. So one pass over the vertices
	// writes every node's parent and bridge once.
	var bridge []bool
	x.ecc, bridge = r.TwoECCBridgesIn(e, g)
	numEcc := int(prim.MaxInt32In(e, x.ecc, -1)) + 1
	x.brPar = make([]int32, numEcc)
	x.brEdgeU = make([]int32, numEcc)
	x.brEdgeW = make([]int32, numEcc)
	e.For(n, func(v int) {
		p := r.Parent[v]
		c := x.ecc[v]
		switch {
		case p == -1:
			x.brPar[c], x.brEdgeU[c], x.brEdgeW[c] = -1, -1, -1
		case bridge[v]:
			x.brPar[c] = x.ecc[p]
			x.brEdgeU[c], x.brEdgeW[c] = min(p, int32(v)), max(p, int32(v))
		}
	})
	rt2 := etour.FromParentsIn(e, x.brPar)
	x.numBridges = numEcc - rt2.NumTrees // one forest edge per bridge
	x.brComp, x.brFirst = rt2.Root, rt2.First
	x.brTourDepth = tourDepths(e, rt2)
	x.brDepth = nodeDepths(e, rt2.First, x.brTourDepth)
	x.brLCA = rmq.NewMinIn(e, x.brTourDepth)
	return x
}

// tourDepths turns an Euler tour into per-position depths: a first
// occurrence descends (+1, or 0 at a tree root), a revisit returns to the
// parent (-1). Each tree's tour starts and ends at its root, so the
// running sum re-zeroes exactly at every tree boundary and one global
// parallel prefix sum handles the whole concatenated tour. The deltas are
// written once into m+1 slots, so after the exclusive scan slot i+1 holds
// the inclusive sum through position i, and the depths are the buffer
// shifted by one.
func tourDepths(e *parallel.Exec, rt *etour.Rooted) []int32 {
	m := len(rt.Tour)
	d := make([]int32, m+1)
	e.For(m, func(i int) {
		v := rt.Tour[i]
		switch {
		case int(rt.First[v]) != i:
			d[i] = -1
		case rt.Parent[v] != -1:
			d[i] = 1
		}
	})
	prim.ExclusiveScanInt32In(e, d)
	return d[1:]
}

func nodeDepths(e *parallel.Exec, first, tourDepth []int32) []int32 {
	d := make([]int32, len(first))
	e.For(len(first), func(v int) { d[v] = tourDepth[first[v]] })
	return d
}

// NumVertices returns the vertex count of the indexed graph.
func (x *Index) NumVertices() int { return len(x.nodeOf) }

// Result returns the decomposition the index was built from.
func (x *Index) Result() *core.Result { return x.res }

// Tree returns the underlying block-cut tree (shared, immutable).
func (x *Index) Tree() *core.BlockCutTree { return x.t }

// NumBlocks returns the number of biconnected components.
func (x *Index) NumBlocks() int { return x.t.NumBlocks }

// NumCutVertices returns the number of articulation points.
func (x *Index) NumCutVertices() int { return len(x.t.Cuts) }

// NumBridges returns the number of bridge edges.
func (x *Index) NumBridges() int { return x.numBridges }

// NumTwoECC returns the number of 2-edge-connected components.
func (x *Index) NumTwoECC() int { return len(x.brPar) }

// IsCutVertex reports whether v is an articulation point, in O(1).
func (x *Index) IsCutVertex(v int32) bool { return x.t.CutNode[v] != -1 }

// Connected reports whether u and v are in the same connected component,
// in O(1): the bridge forest contracts every 2ECC, so two vertices are
// connected iff their 2ECC nodes share a bridge tree.
func (x *Index) Connected(u, v int32) bool {
	if u == v {
		return true
	}
	return x.brComp[x.ecc[u]] == x.brComp[x.ecc[v]]
}

// Biconnected reports whether u and v lie in a common block, in O(1).
func (x *Index) Biconnected(u, v int32) bool { return x.res.Biconnected(u, v) }

// TwoEdgeConnected reports whether u and v are 2-edge-connected (no
// single edge removal disconnects them), in O(1). True for u == v.
func (x *Index) TwoEdgeConnected(u, v int32) bool { return x.ecc[u] == x.ecc[v] }

// lcaDepthBC returns the depth of the lowest common ancestor of tree
// nodes a and b (which must be in the same block-cut tree): the minimum
// tour depth between their first occurrences.
func (x *Index) lcaDepthBC(a, b int32) int32 {
	fa, fb := x.bcFirst[a], x.bcFirst[b]
	if fa > fb {
		fa, fb = fb, fa
	}
	return x.bcLCA.Query(int(fa), int(fb))
}

func (x *Index) lcaDepthBR(a, b int32) int32 {
	fa, fb := x.brFirst[a], x.brFirst[b]
	if fa > fb {
		fa, fb = fb, fa
	}
	return x.brLCA.Query(int(fa), int(fb))
}

func (x *Index) isCutNode(node int32) bool { return int(node) >= x.t.NumBlocks }

// isAncBC reports whether block-cut node anc is an ancestor of node d
// (inclusive). Subtrees are contiguous tour ranges, and different trees
// occupy disjoint ranges, so this is also a same-tree test.
func (x *Index) isAncBC(anc, d int32) bool {
	return x.bcFirst[anc] <= x.bcFirst[d] && x.bcLast[d] <= x.bcLast[anc]
}

// segCuts counts the cut nodes on a k-edge tree path that starts at a
// node of the given kind and walks rootward: block and cut nodes strictly
// alternate along any block-cut tree path.
func segCuts(k int32, startIsCut bool) int32 {
	if startIsCut {
		return k/2 + 1
	}
	return (k + 1) / 2
}

// Separates reports whether removing vertex c disconnects u from v, in
// O(1): true iff c is an articulation point whose cut node lies on the
// block-cut tree path between u's and v's nodes. False when c is u or v,
// when u == v, or when u and v are not connected to begin with.
func (x *Index) Separates(c, u, v int32) bool {
	if c == u || c == v || u == v {
		return false
	}
	cn := x.t.CutNode[c]
	if cn == -1 || !x.Connected(u, v) {
		return false
	}
	a, b := x.nodeOf[u], x.nodeOf[v]
	if x.bcDepth[cn] < x.lcaDepthBC(a, b) {
		return false
	}
	return x.isAncBC(cn, a) || x.isAncBC(cn, b)
}

// NumCutsOnPath counts the articulation points other than u and v whose
// removal disconnects u from v, in O(1): the cut nodes on the block-cut
// tree path between their nodes, counted arithmetically from the path's
// endpoint depths, its LCA depth, and the strict block/cut alternation.
// 0 when u == v or when u and v are not connected.
func (x *Index) NumCutsOnPath(u, v int32) int {
	if u == v || !x.Connected(u, v) {
		return 0
	}
	a, b := x.nodeOf[u], x.nodeOf[v]
	dl := x.lcaDepthBC(a, b)
	ka, kb := x.bcDepth[a]-dl, x.bcDepth[b]-dl
	cnt := segCuts(ka, x.isCutNode(a)) + segCuts(kb, x.isCutNode(b))
	if x.isCutNode(a) == (ka%2 == 0) {
		cnt-- // the LCA is a cut node, counted by both segments
	}
	if x.t.CutNode[u] != -1 {
		cnt--
	}
	if x.t.CutNode[v] != -1 {
		cnt--
	}
	return int(cnt)
}

// CutsOnPath enumerates, in increasing vertex order, the articulation
// points NumCutsOnPath counts. It walks the tree path, so it runs in
// O(path length) and allocates only the output.
func (x *Index) CutsOnPath(u, v int32) []int32 {
	if u == v || !x.Connected(u, v) {
		return nil
	}
	a, b := x.nodeOf[u], x.nodeOf[v]
	dl := x.lcaDepthBC(a, b)
	var out []int32
	collect := func(node int32) {
		if x.isCutNode(node) {
			if w := x.t.Cuts[int(node)-x.t.NumBlocks]; w != u && w != v {
				out = append(out, w)
			}
		}
	}
	for x.bcDepth[a] > dl {
		collect(a)
		a = x.t.Parent[a]
	}
	for x.bcDepth[b] > dl {
		collect(b)
		b = x.t.Parent[b]
	}
	collect(a) // a == b == the LCA
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumBridgesOnPath counts the bridges every u–v route must cross — the
// edges whose removal disconnects u from v — in O(1): the length of the
// bridge-forest path between their 2ECC nodes. 0 when u == v or when u
// and v are not connected.
func (x *Index) NumBridgesOnPath(u, v int32) int {
	if u == v || !x.Connected(u, v) {
		return 0
	}
	a, b := x.ecc[u], x.ecc[v]
	return int(x.brDepth[a] + x.brDepth[b] - 2*x.lcaDepthBR(a, b))
}

// BridgesOnPath enumerates the bridges NumBridgesOnPath counts as graph
// edges (U < W), sorted. It walks the bridge-forest path, so it runs in
// O(path length) and allocates only the output.
func (x *Index) BridgesOnPath(u, v int32) []graph.Edge {
	if u == v || !x.Connected(u, v) {
		return nil
	}
	a, b := x.ecc[u], x.ecc[v]
	dl := x.lcaDepthBR(a, b)
	var out []graph.Edge
	for x.brDepth[a] > dl {
		out = append(out, graph.Edge{U: x.brEdgeU[a], W: x.brEdgeW[a]})
		a = x.brPar[a]
	}
	for x.brDepth[b] > dl {
		out = append(out, graph.Edge{U: x.brEdgeU[b], W: x.brEdgeW[b]})
		b = x.brPar[b]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].W < out[j].W
	})
	return out
}
