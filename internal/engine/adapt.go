package engine

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// FromBlocks converts an explicit block decomposition (the native output
// of the Hopcroft–Tarjan, SM'14, and Tarjan–Vishkin engines) into the
// paper's O(n) label/head representation over a BFS spanning forest of g
// — so a blocks-based engine plugs into every downstream consumer of
// core.Result (Index, Store, TwoECC, BlockCutTree).
//
// The construction leans on a standard fact: an edge of g belongs to
// exactly one block, and that block is the unique one containing both
// endpoints (two distinct blocks share at most one vertex). So with any
// spanning forest whose tree edges are graph edges, each non-root vertex v
// is labeled by the block containing the tree edge (parent[v], v), and a
// block's head is its single member whose own label differs (the block's
// shallowest vertex). Tree roots get fresh singleton labels with no head,
// exactly like the skeleton-connectivity pipeline produces.
//
// Blocks are canonicalized (each sorted, then the list sorted) and the
// forest is a deterministic sequential BFS, so the returned Result is
// identical across runs — blocks-based engines come out Deterministic
// even when their internal scheduling is not. FromBlocks takes ownership
// of blocks and its inner slices.
func FromBlocks(g *graph.Graph, blocks [][]int32) *core.Result {
	n := int(g.N)
	for _, b := range blocks {
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	}
	sort.Slice(blocks, func(i, j int) bool { return lessBlock(blocks[i], blocks[j]) })

	// Deterministic sequential BFS spanning forest (explicit queue: no
	// recursion, so huge-diameter inputs like the paper's Chn graphs are
	// safe). Performance is not critical here — these are the baselines.
	parent := make([]int32, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, 1024)
	var roots []int32
	blockBytes := int64(0)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		parent[s] = -1
		roots = append(roots, int32(s))
		queue = append(queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
	}

	// Label non-root vertices by the block holding their tree edge: mark
	// the current block's members in stamp, then claim every member whose
	// parent is marked too. stamp never needs resetting — block ids only
	// grow.
	label := make([]int32, n)
	stamp := make([]int32, n)
	for i := range stamp {
		label[i] = -1
		stamp[i] = -1
	}
	numBlocks := int32(len(blocks))
	head := make([]int32, len(blocks)+len(roots))
	for b, blk := range blocks {
		blockBytes += int64(4 * len(blk))
		for _, v := range blk {
			stamp[v] = int32(b)
		}
		h := int32(-1)
		for _, v := range blk {
			if parent[v] != -1 && stamp[parent[v]] == int32(b) {
				label[v] = int32(b)
			} else {
				// The block's shallowest vertex: its own tree edge (or
				// rootness) lies outside the block, so it is the head.
				h = v
			}
		}
		if h == -1 {
			panic("engine: block without a head — input was not a block decomposition")
		}
		head[b] = h
	}
	for i, r := range roots {
		label[r] = numBlocks + int32(i)
		head[numBlocks+int32(i)] = -1
	}

	res := &core.Result{
		Label:     label,
		Head:      head,
		Parent:    parent,
		NumLabels: len(head),
		NumBCC:    len(blocks),
	}
	// Adapter state (parent, label, stamp, visited, queue) plus the
	// materialized blocks — the O(sum of block sizes) term the paper's
	// O(n) representation avoids.
	res.AuxBytes = int64(n)*4*3 + int64(n) + blockBytes
	return res
}

func lessBlock(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
