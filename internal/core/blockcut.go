package core

import (
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
// The forest is stored as the parent pointers the decomposition already
// fixes, rooted where the spanning forest is: a block hangs below the cut
// node of its head, and a cut vertex below the block of its own label.
// Block nodes get ids 0..NumBlocks-1 (in dense label order) and cut nodes
// follow. Every array is dense int32 with O(n) entries, like the paper's
// label/head representation of the blocks, so construction is a handful
// of parallel passes and no edge list or adjacency is ever built.
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
	// Parent is the parent of every one of the NumNodes() tree nodes, or
	// -1 for a tree root. A block's parent is its head's cut node (-1 when
	// the head is a spanning root that heads only this block); a cut
	// node's parent is the block of its vertex's label (-1 when the vertex
	// is a spanning root). Every edge joins a block node and a cut node.
	Parent []int32
}

// NumNodes returns the total node count (blocks + cuts).
func (t *BlockCutTree) NumNodes() int { return t.NumBlocks + len(t.Cuts) }

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
// then one pass over the labels and one over the cuts write every parent.
func buildBlockCutTree(e *parallel.Exec, r *Result, cuts []int32) *BlockCutTree {
	n := len(r.Label)
	t := &BlockCutTree{
		Cuts:    cuts,
		CutNode: make([]int32, n),
		BlockOf: make([]int32, r.NumLabels),
	}
	// Dense block ids: BlockOf[l] = #block labels before l, or -1.
	e.ForBlock(r.NumLabels, parallel.DefaultGrain, func(lo, hi int) {
		for l := lo; l < hi; l++ {
			if r.Head[l] != -1 {
				t.BlockOf[l] = 1
			} else {
				t.BlockOf[l] = 0
			}
		}
	})
	t.NumBlocks = int(prim.ExclusiveScanInt32In(e, t.BlockOf))
	e.ForBlock(r.NumLabels, parallel.DefaultGrain, func(lo, hi int) {
		for l := lo; l < hi; l++ {
			if r.Head[l] == -1 {
				t.BlockOf[l] = -1
			}
		}
	})
	parallel.FillIn(e, t.CutNode, -1)
	e.ForBlock(len(cuts), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.CutNode[cuts[i]] = int32(t.NumBlocks + i)
		}
	})

	// An articulation point a belongs to the blocks it heads and, when a
	// is not a spanning root, to the block of its own label. Rooting the
	// forest where the spanning forest is rooted makes the first kind of
	// link point up from the block and the second up from the cut node,
	// so every node has at most one parent link.
	t.Parent = make([]int32, t.NumNodes())
	e.ForBlock(r.NumLabels, parallel.DefaultGrain, func(lo, hi int) {
		for l := lo; l < hi; l++ {
			if b := t.BlockOf[l]; b != -1 {
				t.Parent[b] = t.CutNode[r.Head[l]]
			}
		}
	})
	e.ForBlock(len(cuts), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.Parent[t.NumBlocks+i] = -1
			if v := cuts[i]; r.Parent[v] != -1 {
				t.Parent[t.NumBlocks+i] = t.BlockOf[r.Label[v]]
			}
		}
	})
	return t
}

// IsTree verifies the block-cut structure is a forest whose edges join a
// block node to a cut node: every parent is in range and of the other
// kind, and following parents from any node reaches a root. Used by
// tests and as a sanity check.
func (t *BlockCutTree) IsTree() bool {
	nodes := t.NumNodes()
	if len(t.Parent) != nodes {
		return false
	}
	for x, p := range t.Parent {
		if p < -1 || int(p) >= nodes || p != -1 && (x < t.NumBlocks) == (int(p) < t.NumBlocks) {
			return false
		}
	}
	// state: 0 unseen, 1 on the current upward walk, 2 known to reach a root.
	state := make([]uint8, nodes)
	var walk []int32
	for s := range t.Parent {
		walk = walk[:0]
		x := int32(s)
		for x != -1 && state[x] == 0 {
			state[x] = 1
			walk = append(walk, x)
			x = t.Parent[x]
		}
		if x != -1 && state[x] == 1 {
			return false // the walk came back to itself: a cycle
		}
		for _, y := range walk {
			state[y] = 2
		}
	}
	return true
}
