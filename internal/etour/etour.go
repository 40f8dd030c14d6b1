// Package etour implements the Euler tour technique (ETT) used by the
// Rooting step of FAST-BCC (and of Tarjan–Vishkin), and the rooted tours
// the query index (internal/bctree) is built on.
//
// It has two entry points, one per kind of input forest:
//
//   - RootIn roots an unrooted spanning forest, the First-CC output, at
//     its component representatives; core.BCC and tv.BCC call it. Each
//     undirected tree edge is replicated into two directed arcs, arcs are
//     semisorted by source vertex (a stable counting sort), and a circular
//     successor list — the Euler circuit — is built and broken before
//     each root's first arc.
//   - FromParentsIn tours a forest whose parents are already fixed; the
//     index's block-cut and bridge forests come out of the decomposition
//     that way, so bctree.NewIn calls it. Children are grouped by parent
//     with the same counting sort, and each node owns a down arc (parent
//     to node) and an up arc (node to parent): a down arc is followed by
//     the node's first child's down arc (or, at a leaf, the node's own up
//     arc), an up arc by the next sibling's down arc or else the parent's
//     up arc.
//
// Both then share one list ranking, which flattens each tree's chain of
// arcs into its segment of one global tour array, and both write the
// parent, first and last appearance and the two tour slots of every tree
// edge once, from the ranks of its down and up arcs — exactly the tags
// Alg. 1 needs. The tours of all trees are concatenated, so one array
// serves the later RMQ-based Tagging.
//
// List ranking coarsens with ~√m samples as described in Sec. 5 of the
// paper: samples walk to the next sample in parallel, a walk over each
// tree's (short) sample chain assigns sample offsets and the tree's
// length, a scan over the trees places their segments, and a second
// parallel walk scatters slots. Work is O(n); span is proportional to the
// largest inter-sample gap (√n in expectation for the tours generated
// here).
package etour

import (
	"math"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
)

// Rooted is the result of rooting a forest.
type Rooted struct {
	// Parent[v] is v's parent in its rooted tree; -1 for tree roots.
	Parent []int32
	// First and Last are each vertex's first and last position on the
	// global tour array (First == Last for isolated vertices).
	First, Last []int32
	// Tour lists the vertex at every tour position. Its length is
	// 2n - NumTrees: each tree of size s contributes 2s-1 contiguous slots.
	Tour []int32
	// NumTrees is the number of trees in the forest (= #components).
	NumTrees int
	// Root[v] is the root of v's tree. Only FromParentsIn fills it:
	// RootIn's caller passes the roots in as comp.
	Root []int32
}

// Root roots the spanning forest given by forest edges over n vertices.
// comp[v] must be the component representative of v (comp[r] == r), as
// produced by conn.Connectivity; each tree is rooted at its representative.
// Equivalent to RootIn with a nil execution context and arena.
func Root(n int, forest []graph.Edge, comp []int32) *Rooted {
	return RootIn(nil, n, forest, comp, nil)
}

// RootIn is Root running on the execution context e (nil = the
// process-global default) and drawing its temporaries — and the returned
// First, Last, and Tour arrays — from sc (which may be nil). The caller
// owns the arena-backed result arrays; Parent is always freshly allocated
// because it outlives the pipeline run inside core.Result.
func RootIn(e *parallel.Exec, n int, forest []graph.Edge, comp []int32, sc *graph.Scratch) *Rooted {
	// Directed arcs: arc 2i = (U→W), arc 2i+1 = (W→U); an arc's head is
	// its twin's source.
	src := func(a int) int32 {
		if a&1 == 0 {
			return forest[a>>1].U
		}
		return forest[a>>1].W
	}
	m2 := 2 * len(forest)
	// Semisort arcs by source vertex.
	perm, off := prim.CountingSortByKeyArena(e, m2, int32(n), src, sc)
	pos := sc.GetInt32(m2) // original arc -> sorted position
	e.For(m2, func(j int) { pos[perm[j]] = int32(j) })

	// Euler circuit successor: succ(u→v) = the arc after (v→u) in v's
	// bucket, cyclically. Each circuit is broken before its root's first
	// outgoing arc, so list ranking sees one chain per tree.
	next := sc.GetInt32(m2)
	e.For(m2, func(j int) {
		twin := int(perm[j]) ^ 1
		v := src(twin)
		s := pos[twin] + 1
		if s >= off[v+1] {
			s = off[v]
		}
		if comp[v] == v && s == off[v] {
			s = -1
		}
		next[j] = s
	})

	// Trees in increasing root order; a root with no arcs (an isolated
	// vertex) has an empty chain.
	roots := prim.PackIndicesArena(e, n, func(v int) bool { return comp[v] == int32(v) }, sc)
	heads := sc.GetInt32(len(roots))
	parent := make([]int32, n)
	e.For(len(roots), func(t int) {
		v := roots[t]
		parent[v] = -1
		heads[t] = -1
		if off[v] < off[v+1] {
			heads[t] = off[v]
		}
	})
	slot, base, tourLen := rankTours(e, next, heads, nil, sc)

	r := &Rooted{
		Parent:   parent,
		First:    sc.GetInt32(n),
		Last:     sc.GetInt32(n),
		Tour:     sc.GetInt32(int(tourLen)),
		NumTrees: len(roots),
	}
	r.placeRoots(e, roots, base, tourLen)
	// Of a tree edge's two arcs, the one ranked first is the down arc.
	e.ForBlock(len(forest), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p, c := forest[i].U, forest[i].W
			down, up := slot[pos[2*i]], slot[pos[2*i+1]]
			if down > up {
				p, c, down, up = c, p, up, down
			}
			r.Parent[c] = p
			r.placeEdge(p, c, down, up)
		}
	})
	sc.PutInt32(perm, off, pos, next, roots, heads, slot, base)
	return r
}

// FromParentsIn builds the Euler tour of the forest given by parent
// pointers (parent[v] = -1 for a root) on the execution context e (nil =
// the process-global default). parent must describe a forest; it becomes
// the result's Parent as is and is only read, so it may be shared or
// read-only memory. Trees are laid out in increasing root order, and Root
// is filled. Temporaries are plain allocations.
func FromParentsIn(e *parallel.Exec, parent []int32) *Rooted {
	n := len(parent)
	// Children grouped by parent, in increasing id order within a group;
	// the roots form one last group (key n).
	perm, off := prim.CountingSortByKeyArena(e, n, int32(n)+1, func(v int) int32 {
		if p := parent[v]; p != -1 {
			return p
		}
		return int32(n)
	}, nil)
	// The child at sorted position j owns the down arc 2j and the up arc
	// 2j+1 of its tree edge.
	nc := int(off[n])
	roots := perm[nc:]
	pos := make([]int32, n) // child -> sorted position
	e.For(nc, func(j int) { pos[perm[j]] = int32(j) })
	next := make([]int32, 2*nc)
	e.For(nc, func(j int) {
		c := perm[j]
		if off[c] < off[c+1] {
			next[2*j] = 2 * off[c] // down to c's first child
		} else {
			next[2*j] = int32(2*j + 1) // a leaf: straight back up
		}
		switch p := parent[c]; {
		case int32(j+1) < off[p+1]:
			next[2*j+1] = int32(2 * (j + 1)) // down to the next sibling
		case parent[p] == -1:
			next[2*j+1] = -1 // back at the root: the tour ends
		default:
			next[2*j+1] = 2*pos[p] + 1 // up from the parent
		}
	})
	heads := make([]int32, len(roots))
	e.For(len(roots), func(t int) {
		heads[t] = -1
		if v := roots[t]; off[v] < off[v+1] {
			heads[t] = 2 * off[v]
		}
	})
	tree := make([]int32, 2*nc)
	slot, base, tourLen := rankTours(e, next, heads, tree, nil)

	r := &Rooted{
		Parent:   parent,
		First:    make([]int32, n),
		Last:     make([]int32, n),
		Tour:     make([]int32, tourLen),
		NumTrees: len(roots),
		Root:     make([]int32, n),
	}
	r.placeRoots(e, roots, base, tourLen)
	e.For(len(roots), func(t int) { r.Root[roots[t]] = roots[t] })
	e.For(nc, func(j int) {
		c := perm[j]
		r.placeEdge(parent[c], c, slot[2*j], slot[2*j+1])
		r.Root[c] = roots[tree[2*j]]
	})
	return r
}

// placeRoots writes each tree's root: tree t's segment starts at base[t]
// and ends where the next one starts, and its root is the first and last
// vertex on it. It leaves Parent alone.
func (r *Rooted) placeRoots(e *parallel.Exec, roots, base []int32, tourLen int32) {
	e.For(len(roots), func(t int) {
		end := tourLen
		if t+1 < len(roots) {
			end = base[t+1]
		}
		v := roots[t]
		r.First[v], r.Last[v] = base[t], end-1
		r.Tour[base[t]] = v
	})
}

// placeEdge writes the tree edge from p down to c whose down arc landed
// on slot down and whose up arc on slot up: the down arc's slot is c's
// first appearance, and the slot before the up arc is its last.
func (r *Rooted) placeEdge(p, c, down, up int32) {
	r.First[c], r.Last[c] = down, up-1
	r.Tour[down], r.Tour[up] = c, p
}

// rankTours list-ranks the chains of next (next[a] = -1 ends a chain)
// that start at heads, one chain per tree (-1 for a tree with no arcs),
// and lays the trees' tours out back to back in heads order: tree t's
// segment starts at base[t], the slot of its root, and is its chain's
// length plus one slots long, so base is an exclusive scan over the
// trees. The arc at distance k from heads[t] gets slot base[t]+k+1. It
// returns every arc's slot, the bases and the total tour length, and
// when tree is non-nil it also records each arc's tree there.
func rankTours(e *parallel.Exec, next, heads, tree []int32, sc *graph.Scratch) (slot, base []int32, tourLen int32) {
	m := len(next)
	step := int(math.Sqrt(float64(m)))
	if step < 1 {
		step = 1
	}
	// Samples are every step-th arc and every chain head. sampleIdx maps
	// an arc to its index in samples, -1 for other arcs; the heads are
	// marked in it first so the pack sees them.
	sampleIdx := sc.GetInt32(m)
	parallel.FillIn(e, sampleIdx, -1)
	e.For(len(heads), func(t int) {
		if h := heads[t]; h != -1 {
			sampleIdx[h] = 0
		}
	})
	samples := prim.PackIndicesArena(e, m, func(j int) bool {
		return j%step == 0 || sampleIdx[j] == 0
	}, sc)
	ns := len(samples)
	e.For(ns, func(i int) { sampleIdx[samples[i]] = int32(i) })
	// Phase 1: each sample walks to the next sample (or chain end),
	// recording the hop count and the sample reached.
	nextSample := sc.GetInt32(ns) // index into samples, -1 at end
	gap := sc.GetInt32(ns)
	e.ForGrain(ns, 1, func(i int) {
		j := samples[i]
		d := int32(0)
		for {
			j = next[j]
			d++
			if j == -1 {
				nextSample[i] = -1
				break
			}
			if si := sampleIdx[j]; si >= 0 {
				nextSample[i] = si
				break
			}
		}
		gap[i] = d
	})
	// Phase 2: walk each tree's sample chain (they are short), giving
	// every sample its tree and its distance from the head; the distance
	// past the last sample is the chain's length.
	sampleTree := sc.GetInt32(ns)
	sampleRank := sc.GetInt32(ns)
	base = sc.GetInt32(len(heads))
	e.ForGrain(len(heads), 1, func(t int) {
		d := int32(0)
		if h := heads[t]; h != -1 {
			for i := sampleIdx[h]; i != -1; i = nextSample[i] {
				sampleTree[i] = int32(t)
				sampleRank[i] = d
				d += gap[i]
			}
		}
		base[t] = d + 1
	})
	tourLen = prim.ExclusiveScanInt32In(e, base)
	// Phase 3: re-walk from each sample, scattering slots to the arcs up
	// to the next sample.
	slot = sc.GetInt32(m)
	e.ForGrain(ns, 1, func(i int) {
		j, t := samples[i], sampleTree[i]
		s := base[t] + sampleRank[i] + 1
		for {
			slot[j] = s
			if tree != nil {
				tree[j] = t
			}
			j = next[j]
			if j == -1 || sampleIdx[j] >= 0 {
				break
			}
			s++
		}
	})
	sc.PutInt32(sampleIdx, samples, nextSample, gap, sampleTree, sampleRank)
	return slot, base, tourLen
}
