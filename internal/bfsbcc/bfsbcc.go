// Package bfsbcc implements a GBBS-style space-efficient parallel BCC
// algorithm based on BFS skeletons (Dhulipala, Blelloch, Shun, TOPC 2021),
// the paper's main parallel baseline.
//
// It follows the same skeleton–connectivity framework as FAST-BCC but the
// Rooting and Tagging steps depend on the BFS tree:
//
//  1. First-CC  — connectivity only (no spanning forest needed).
//  2. Rooting   — a multi-source BFS from every component representative
//     builds the spanning trees; span O(Diam(G) log n).
//  3. Tagging   — subtree sizes and preorder numbers are computed by
//     level-by-level bottom-up/top-down traversals of the BFS tree, then
//     low/high fold up the tree; span O(Diam(G) log n) again.
//  4. Last-CC   — identical to FAST-BCC: connectivity over the implicit
//     skeleton with fence and back edges skipped.
//
// The first/last tags here are preorder intervals (first = preorder,
// last = preorder + subtree size - 1) rather than Euler tour positions;
// the fence/back predicates are the same under either numbering. The
// diameter-proportional steps 2–3 are exactly what Fig. 5 of the paper
// shows dominating on large-diameter graphs.
//
// Every parallel loop runs on the execution context of Options.Exec (nil =
// the process-global default), so concurrent serving with this baseline is
// isolated exactly like the fastbcc path: per-run worker caps, no global
// state.
package bfsbcc

import (
	"sync/atomic"
	"time"

	"repro/internal/conn"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
)

// Options configures the baseline. Both of its connectivity passes, the
// First-CC and the skeleton labeling, run conn's default algorithm,
// LDD-UF-JTB.
type Options struct {
	Seed uint64
	// Exec is the execution context every parallel loop of the run uses
	// (nil = the process-global default).
	Exec *parallel.Exec
}

// BCC computes biconnected components with the BFS-skeleton baseline. The
// result uses the same representation as FAST-BCC (core.Result), so all
// derived queries (Blocks, ArticulationPoints, Bridges) are shared.
func BCC(g *graph.Graph, opt Options) *core.Result {
	n := int(g.N)
	e := opt.Exec
	res := &core.Result{}

	// ---- Step 1: First-CC (labels only) -----------------------------------
	t0 := time.Now()
	cc := conn.Connectivity(g, conn.Options{
		Seed: opt.Seed,
		Exec: e,
	})
	res.Times.FirstCC = time.Since(t0)

	// ---- Step 2: Rooting via multi-source BFS ------------------------------
	t0 = time.Now()
	parent := make([]int32, n)
	level := make([]int32, n)
	parallel.FillIn(e, parent, -1)
	parallel.FillIn(e, level, -1)
	frontier := prim.PackIndicesIn(e, n, func(v int) bool { return cc.Comp[v] == int32(v) })
	e.For(len(frontier), func(i int) {
		r := frontier[i]
		parent[r] = r // temporarily self; reset to -1 after BFS
		level[r] = 0
	})
	maxLevel := int32(0)
	levels := [][]int32{frontier}
	for len(frontier) > 0 {
		maxLevel++
		next := expand(e, g, frontier, parent, level, maxLevel)
		frontier = next
		if len(next) > 0 {
			levels = append(levels, next)
		}
	}
	maxLevel = int32(len(levels) - 1)
	e.For(n, func(v int) {
		if parent[v] == int32(v) {
			parent[v] = -1
		}
	})
	res.Parent = parent
	res.Times.Rooting = time.Since(t0)

	// ---- Step 3: Tagging by tree traversals --------------------------------
	t0 = time.Now()
	// Children lists: counting sort vertices by parent (roots bucketed at
	// their own id; they are skipped as "children").
	size := make([]int32, n)
	parallel.FillIn(e, size, 1)
	// Bottom-up subtree sizes, one level at a time (span ∝ D).
	for l := maxLevel; l >= 1; l-- {
		lv := levels[l]
		e.For(len(lv), func(i int) {
			v := lv[i]
			atomic.AddInt32(&size[parent[v]], size[v])
		})
	}
	// Preorder numbers: roots get component-base offsets; children get
	// parent's preorder + 1 + sizes of earlier siblings (adjacency order).
	first := make([]int32, n)
	base := int32(0)
	for _, r := range levels[0] {
		first[r] = base
		base += size[r]
	}
	for l := 0; l < int(maxLevel); l++ {
		lv := levels[l]
		e.ForBlock(len(lv), 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := lv[i]
				off := first[v] + 1
				// Children in adjacency order; adjacency is sorted, so
				// parallel-edge duplicates are adjacent and skipped.
				prev := int32(-1)
				for _, w := range g.Neighbors(v) {
					if w != v && w != prev && parent[w] == v {
						first[w] = off
						off += size[w]
					}
					prev = w
				}
			}
		})
	}
	last := make([]int32, n)
	e.For(n, func(v int) { last[v] = first[v] + size[v] - 1 })
	// w1/w2 over non-tree edges, then low/high folded bottom-up.
	w1 := make([]int32, n)
	w2 := make([]int32, n)
	parallel.CopyIn(e, w1, first)
	parallel.CopyIn(e, w2, first)
	e.ForBlock(n, 256, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			for _, w := range g.Neighbors(v) {
				if w == v || parent[w] == v || parent[v] == w {
					continue
				}
				prim.WriteMin(&w1[v], first[w])
				prim.WriteMax(&w2[v], first[w])
			}
		}
	})
	low := w1
	high := w2 // folded in place bottom-up
	for l := maxLevel; l >= 1; l-- {
		lv := levels[l]
		e.For(len(lv), func(i int) {
			v := lv[i]
			prim.WriteMin(&low[parent[v]], low[v])
			prim.WriteMax(&high[parent[v]], high[v])
		})
	}
	res.Times.Tagging = time.Since(t0)

	// ---- Step 4: Last-CC ----------------------------------------------------
	t0 = time.Now()
	fence := func(u, v int32) bool {
		return first[u] <= low[v] && last[u] >= high[v]
	}
	back := func(u, v int32) bool {
		return first[u] <= first[v] && last[u] >= first[v]
	}
	inSkeleton := func(u, v int32) bool {
		if parent[v] == u || parent[u] == v {
			return !fence(u, v) && !fence(v, u)
		}
		return !back(u, v) && !back(v, u)
	}
	sk := conn.Connectivity(g, conn.Options{
		Seed:   opt.Seed + 0x5eed,
		Filter: inSkeleton,
		Exec:   e,
	})
	res.Label = sk.NormalizeIn(e)
	res.NumLabels = sk.NumComp
	res.Head = make([]int32, sk.NumComp)
	parallel.FillIn(e, res.Head, -1)
	e.For(n, func(v int) {
		p := parent[v]
		if p != -1 && res.Label[v] != res.Label[p] {
			// Same-value concurrent writes (the head is unique per label);
			// atomic store keeps them defined under the Go memory model.
			atomic.StoreInt32(&res.Head[res.Label[v]], p)
		}
	})
	nBCC := 0
	for _, h := range res.Head {
		if h != -1 {
			nBCC++
		}
	}
	res.NumBCC = nBCC
	res.Times.LastCC = time.Since(t0)

	// GBBS computes fewer tags than FAST-BCC (no Euler tour or RMQ tables):
	// per-vertex arrays (parent, level, size, first, last, w1, w2, comp,
	// labels ≈ 9n) plus connectivity state (≈ 3n) and frontier buffers (2n).
	res.AuxBytes = int64(n) * 4 * (9 + 3 + 2)
	// Pre-publication cache init so LabelSizes, ArticulationPoints, and
	// BlockCutTree stay lock-free afterwards.
	res.PrecomputeLabelSizes()
	res.PrecomputeTopologyIn(e)
	return res
}

func expand(e *parallel.Exec, g *graph.Graph, frontier []int32, parent, level []int32, lvl int32) []int32 {
	nb := (len(frontier) + 255) / 256
	outs := make([][]int32, nb)
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*256, (b+1)*256
			if hi > len(frontier) {
				hi = len(frontier)
			}
			var out []int32
			for i := lo; i < hi; i++ {
				u := frontier[i]
				for _, w := range g.Neighbors(u) {
					if atomic.LoadInt32(&parent[w]) == -1 &&
						atomic.CompareAndSwapInt32(&parent[w], -1, u) {
						level[w] = lvl
						out = append(out, w)
					}
				}
			}
			outs[b] = out
		}
	})
	sizes := make([]int32, nb)
	for b := range outs {
		sizes[b] = int32(len(outs[b]))
	}
	total := prim.ExclusiveScanInt32In(e, sizes)
	next := make([]int32, total)
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			copy(next[sizes[b]:], outs[b])
		}
	})
	return next
}
