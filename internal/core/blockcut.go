package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
)

// BlockCutTree is the block-cut tree (block forest) of a graph: one node
// per block and one per articulation point, with an edge whenever the
// articulation point belongs to the block. It is the standard substrate
// for the applications the paper cites (betweenness/closeness centrality
// decomposition, planarity testing, network robustness) and for the
// path-query index in internal/bctree.
//
// The tree is stored flat: block nodes get ids 0..NumBlocks-1 (in dense
// label order), cut nodes follow, and adjacency is one CSR over all nodes.
// Every array is dense int32 — no maps — so construction is a handful of
// parallel passes.
type BlockCutTree struct {
	// NumBlocks is the number of block nodes (ids 0..NumBlocks-1).
	NumBlocks int
	// Cuts lists the articulation points in increasing vertex order; cut
	// node i corresponds to tree node NumBlocks + i.
	Cuts []int32
	// CutNode maps a vertex to its cut node id, or -1 when the vertex is
	// not an articulation point.
	CutNode []int32
	// BlockOf maps a dense label (Result.Label) to its block node id, or
	// -1 for root-singleton labels that are not blocks.
	BlockOf []int32
	// Offsets and Adj are the CSR adjacency over all NumNodes() tree
	// nodes: Adj[Offsets[x]:Offsets[x+1]] lists the neighbors of node x,
	// sorted ascending. Every edge joins a block node and a cut node.
	Offsets []int32
	Adj     []int32
}

// NumNodes returns the total node count (blocks + cuts).
func (t *BlockCutTree) NumNodes() int { return len(t.Offsets) - 1 }

// Neighbors returns the tree neighbors of node x (sorted ascending).
func (t *BlockCutTree) Neighbors(x int32) []int32 {
	return t.Adj[t.Offsets[x]:t.Offsets[x+1]]
}

// Degree returns the number of tree neighbors of node x.
func (t *BlockCutTree) Degree(x int32) int {
	return int(t.Offsets[x+1] - t.Offsets[x])
}

// BlockCutTree derives the block-cut tree from the decomposition. The
// tree is computed on first use (together with ArticulationPoints) and
// cached, guarded by a sync.Once: concurrent first calls on a shared
// Result are safe and all return the same tree, which must be treated as
// immutable. Serving constructors precompute the cache before publishing
// (see PrecomputeTopologyIn).
func (r *Result) BlockCutTree() *BlockCutTree {
	r.precomputeTopology(nil)
	return r.bct
}

// buildBlockCutTree is the one construction pass behind BlockCutTree:
// dense block ids by a prefix sum over labels, cut ids by rank in cuts,
// and the adjacency CSR via the parallel atomic-free graph builder.
func buildBlockCutTree(e *parallel.Exec, r *Result, cuts []int32) *BlockCutTree {
	n := len(r.Label)
	t := &BlockCutTree{
		Cuts:    cuts,
		CutNode: make([]int32, n),
		BlockOf: make([]int32, r.NumLabels),
	}
	// Dense block ids: BlockOf[l] = #block labels before l, or -1.
	e.For(r.NumLabels, func(l int) {
		if r.Head[l] != -1 {
			t.BlockOf[l] = 1
		} else {
			t.BlockOf[l] = 0
		}
	})
	t.NumBlocks = int(prim.ExclusiveScanInt32In(e, t.BlockOf))
	e.For(r.NumLabels, func(l int) {
		if r.Head[l] == -1 {
			t.BlockOf[l] = -1
		}
	})
	parallel.FillIn(e, t.CutNode, -1)
	e.For(len(cuts), func(i int) {
		t.CutNode[cuts[i]] = int32(t.NumBlocks + i)
	})

	// Tree edges, duplicate-free by construction: an articulation point a
	// belongs to the blocks it heads (one link per such label) and, when a
	// is not a root, to the block of its own label (one link per cut
	// vertex). The two sources never collide: a head link (B_l, cut(h))
	// equals a member link (B_{Label[v]}, cut(v)) only if v == h and
	// Label[h] == l, impossible because a head always lies outside the
	// component it heads (Label[Head[l]] != l).
	headLinks := prim.PackIndicesIn(e, r.NumLabels, func(l int) bool {
		h := r.Head[l]
		return h != -1 && t.CutNode[h] != -1
	})
	memberLinks := prim.PackIndicesIn(e, n, func(v int) bool {
		return t.CutNode[v] != -1 && r.Parent[v] != -1
	})
	links := make([]graph.Edge, len(headLinks)+len(memberLinks))
	e.For(len(headLinks), func(i int) {
		l := headLinks[i]
		links[i] = graph.Edge{U: t.BlockOf[l], W: t.CutNode[r.Head[l]]}
	})
	base := len(headLinks)
	e.For(len(memberLinks), func(i int) {
		v := memberLinks[i]
		links[base+i] = graph.Edge{U: t.BlockOf[r.Label[v]], W: t.CutNode[v]}
	})
	bg, err := graph.FromEdgesIn(e, t.NumBlocks+len(cuts), links, nil)
	if err != nil {
		panic("core: block-cut tree edges out of range: " + err.Error())
	}
	t.Offsets, t.Adj = bg.Offsets, bg.Adj
	return t
}

// IsTree verifies the block-cut structure is a forest: #edges == #nodes -
// #trees. Used by tests and as a sanity check.
func (t *BlockCutTree) IsTree() bool {
	nodes := t.NumNodes()
	edges := len(t.Adj) / 2
	// Count connected components of the tree with a scratch DFS.
	visited := make([]bool, nodes)
	comps := 0
	stack := []int32{}
	for s := 0; s < nodes; s++ {
		if visited[s] {
			continue
		}
		comps++
		visited[s] = true
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range t.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return edges == nodes-comps
}
