// Package core implements FAST-BCC (Fencing an Arbitrary Spanning Tree),
// the parallel biconnectivity algorithm of Dong, Wang, Gu, and Sun
// (PPoPP 2023) — Alg. 1 of the paper.
//
// The four steps mirror the paper's four phases, and the StepTimes
// breakdown (Fig. 5) maps one-to-one onto them:
//
//  1. First-CC (StepTimes.FirstCC) — parallel connectivity (LDD-UF-JTB)
//     over the input graph, producing a spanning forest as a by-product.
//  2. Rooting (StepTimes.Rooting) — the Euler tour technique roots every
//     tree at its component representative and yields first/last tour
//     positions and parents.
//  3. Tagging (StepTimes.Tagging) — w1/w2 are folded over each vertex's
//     non-tree edges in registers and stored once per vertex, then
//     low/high come from 1-D range min/max queries over the tour-ordered
//     w1/w2 arrays.
//  4. Last-CC (StepTimes.LastCC) — connectivity over the *implicit*
//     skeleton (never materialized, keeping auxiliary space O(n)): the
//     non-fence tree edges are streamed off the spanning forest, then the
//     cross arcs off the CSR with the fence/back interval tests inlined,
//     skipping the arcs of the set that holds the most of them, all into
//     a concurrent union-find (see lastCC). The step timer also
//     covers the fused finalization — dense labels, component heads,
//     block count, and the per-label size cache are produced in the same
//     pass, so everything the Result's O(n) representation needs is
//     inside the reported Last-CC time. (The lazily-built topology
//     caches, ArticulationPoints and BlockCutTree, are this
//     implementation's serving addition and are outside the paper's
//     phases and the step breakdown.)
//
// The output is the paper's O(n) BCC representation: a label per non-root
// vertex plus a component head per label. Articulation points, bridges,
// and explicit blocks are derived from it on demand.
//
// Multigraphs are supported: parallel edges are all classified as tree
// edges when they parallel a tree edge, which provably never changes any
// fence predicate (the duplicate's w1/w2 contribution equals first[parent],
// and Fence compares with ≤/≥), and self-loops are skipped; neither affects
// vertex-set biconnectivity.
package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conn"
	"repro/internal/etour"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
	"repro/internal/tags"
	"repro/internal/uf"
)

// Options configures FAST-BCC.
type Options struct {
	// Seed drives the randomized connectivity (LDD shifts).
	Seed uint64
	// LocalSearch enables the hash-bag/local-search connectivity
	// optimization (the paper's "Opt" variant, Fig. 6). Default off.
	// Applies to First-CC; Last-CC streams the skeleton into a
	// union-find directly and has no LDD to tune.
	LocalSearch bool
	// Scratch, when non-nil, recycles the ~16n int32 of per-run auxiliary
	// buffers (tags, tour, connectivity state) across BCC calls, the
	// serving pattern where the same process answers many decompositions.
	// The arena is safe for concurrent use, and the returned Result never
	// aliases arena memory, so results stay valid after the arena is
	// reused by later runs.
	Scratch *graph.Scratch
	// Exec is the execution context every parallel loop of the run uses
	// (nil = the process-global default). Concurrent BCC calls with
	// distinct or capped contexts get bounded, isolated parallelism with
	// no global state mutation.
	Exec *parallel.Exec
}

// StepTimes records the per-step running times that Fig. 5 of the paper
// breaks down.
type StepTimes struct {
	FirstCC time.Duration
	Rooting time.Duration
	Tagging time.Duration
	LastCC  time.Duration
}

// Total returns the sum of the step times.
func (s StepTimes) Total() time.Duration {
	return s.FirstCC + s.Rooting + s.Tagging + s.LastCC
}

// Result is the biconnectivity decomposition of a graph in the paper's
// O(n) representation.
type Result struct {
	// Label[v] is the dense skeleton-component id of v in [0, NumLabels).
	// Vertices with the same label are biconnected (Thm. 4.11); a label
	// together with its Head forms one BCC.
	Label []int32
	// Head[l] is the component head attached to label l, or -1 when label
	// l is a tree root's singleton component (not a BCC).
	Head []int32
	// Parent[v] is v's parent in the spanning forest, -1 for roots.
	Parent []int32
	// NumLabels is the number of distinct labels (= len(Head)).
	NumLabels int
	// NumBCC is the number of biconnected components.
	NumBCC int
	// Times holds the per-step breakdown.
	Times StepTimes
	// AuxBytes estimates the peak auxiliary memory in bytes (tags, tour,
	// RMQ tables, connectivity state — everything beyond the input graph).
	AuxBytes int64

	// labelCount[l] is the number of non-root vertices with label l.
	// core.BCC fills it during the fused Last-CC finalization (one pass
	// with the Head assignment); otherwise it is computed lazily, guarded
	// by sizesOnce, on first use (IsBridge, Bridges, TwoECC): the per-call
	// O(n) label scan made those queries quadratic in callers that loop
	// over edges.
	sizesOnce  sync.Once
	labelCount []int32
	// artPoints and bct cache ArticulationPoints and BlockCutTree, which
	// used to be recomputed — O(n) and with maps — on every call. They are
	// computed lazily on first use, guarded by topoOnce, so one-shot BCC
	// callers that never query the topology skip the ~2n int32 of caches
	// entirely. Serving constructors (Runner, Store, engine.FromBlocks,
	// bfsbcc, the Index build) precompute them eagerly on their own
	// execution context via PrecomputeTopologyIn, so published snapshots
	// have no first-query latency cliff.
	topoOnce  sync.Once
	artPoints []int32
	bct       *BlockCutTree
}

// computeLabelSizes is the one O(n) pass behind LabelSizes.
func computeLabelSizes(r *Result) []int32 {
	count := make([]int32, r.NumLabels)
	for v, l := range r.Label {
		if r.Parent[v] != -1 {
			count[l]++
		}
	}
	return count
}

// PrecomputeLabelSizes populates the LabelSizes cache ahead of
// publication; constructors that do not fill the cache during their own
// finalization (bfsbcc.BCC, engine.FromBlocks) call it once. Equivalent
// to discarding LabelSizes().
func (r *Result) PrecomputeLabelSizes() { r.LabelSizes() }

// LabelSizes returns the per-label count of non-root member vertices
// (label l's block has LabelSizes()[l]+1 vertices including its head).
// The cache is computed on first use, guarded by a sync.Once: concurrent
// first calls on a shared Result are safe and every caller gets the same
// cached slice (treat it as read-only). core.BCC fills the cache during
// finalization, so on a BCC result this is always a lock-free read.
func (r *Result) LabelSizes() []int32 {
	r.sizesOnce.Do(func() {
		if r.labelCount == nil {
			r.labelCount = computeLabelSizes(r)
		}
	})
	return r.labelCount
}

// BCC computes the biconnected components of g with FAST-BCC.
func BCC(g *graph.Graph, opt Options) *Result {
	n := int(g.N)
	sc := opt.Scratch
	if sc == nil {
		// Run-private arena: the pipeline's Get/Put discipline then
		// recycles buffers within this one run (the LDD frontier buffers
		// alone round-trip every BFS round), and the whole arena dies
		// with the run. The Result never aliases arena memory, so this is
		// invisible to the caller; passing a long-lived Options.Scratch
		// still amortizes across runs.
		sc = graph.NewScratch()
	}
	e := opt.Exec
	res := &Result{}

	// ---- Step 1: First-CC ------------------------------------------------
	t0 := time.Now()
	cc := conn.Connectivity(g, conn.Options{
		Seed:        opt.Seed,
		LocalSearch: opt.LocalSearch,
		WantForest:  true,
		Scratch:     sc,
		Exec:        e,
	})
	res.Times.FirstCC = time.Since(t0)

	// ---- Step 2: Rooting -------------------------------------------------
	t0 = time.Now()
	rt := etour.RootIn(e, n, cc.Forest, cc.Comp, sc)
	res.Parent = rt.Parent
	sc.PutInt32(cc.Comp)
	sc.PutEdges(cc.Forest)
	res.Times.Rooting = time.Since(t0)

	// ---- Step 3: Tagging -------------------------------------------------
	t0 = time.Now()
	tg := tags.ComputeIn(e, g, rt, sc)
	sc.PutInt32(rt.Tour)
	res.Times.Tagging = time.Since(t0)

	// ---- Step 4: Last-CC -------------------------------------------------
	t0 = time.Now()
	lastCC(e, g, tg, rt.NumTrees, sc, res)
	// The tag arrays die with the skeleton pass; First/Last alias the
	// Rooted arrays, so each buffer goes back exactly once.
	sc.PutInt32(tg.Low, tg.High, rt.First, rt.Last)
	res.Times.LastCC = time.Since(t0)
	// The articulation-point / block-cut-tree caches stay lazy (sync.Once
	// on first query); serving constructors precompute them on their own
	// context — see PrecomputeTopologyIn.

	// Auxiliary space estimate (bytes): per-vertex tag arrays (w1, w2,
	// low, high, first, last, parent, comp, labels, head ≈ 10n int32),
	// tour + RMQ value arrays (≈ 3·2n), RMQ block tables (≈ 4·2n/16),
	// connectivity + skeleton union-find state (≈ 3n), spanning forest
	// (2n).
	res.AuxBytes = int64(n) * 4 * (10 + 6 + 1 + 3 + 2)
	return res
}

// lastCC is the skeleton-aware Last-CC step fused with finalization.
//
// The skeleton G' (Alg. 1 line 7) is never materialized, but unlike the
// historical implementation it is not rediscovered by a full filtered
// connectivity run either: LDD shift sampling, BFS rounds, and two
// per-arc InSkeleton closure calls over all m edges are replaced by
// streaming the two skeleton arc classes straight into a concurrent
// union-find —
//
//   - non-fence tree edges read off the First-CC spanning forest (the
//     parent array), one O(1) fence test per vertex, no adjacency scan;
//   - cross arcs found by one pass over the CSR with the back-edge
//     interval tests inlined (tree and back arcs are skipped in place).
//     Between the two, comp snapshots the sets the tree unions left, and
//     conn.DominantSet picks the one holding the most arcs; the pass never
//     reads that set's arcs and unions an edge leaving it from its other
//     end, as First-CC's cut-edge walk skips its dominant cluster. At
//     LDD seed 0 and one worker, that set holds 76% of the arcs of
//     bccperf's seed-7 RMAT-16-8 and 72% of the 360×360 sampled grid's
//     (76–92% and 67–73% over three runs at two workers, whose forest
//     depends on the schedule).
//
// The skeleton is a subgraph of already-known structure, so the LDD's
// theoretical span guarantee buys nothing here: the union-find depth is
// bounded by the same argument as the cut-edge phase of First-CC.
//
// Finalization is fused into the same step: dense labels come from a
// prefix sum over union-find roots (comp is overwritten with the final
// sets), and a single parallel pass assigns
// component heads (Thm. 4.9: the head is the unique parent across a
// fence edge out of the component) while counting per-label members —
// the LabelSizes cache — in place. The sequential head scan that used to
// count blocks is gone entirely: every tree root is isolated in the
// skeleton (all root tree edges are fences, all root non-tree arcs are
// back arcs), so NumBCC = NumLabels − numTrees in O(1).
func lastCC(e *parallel.Exec, g *graph.Graph, tg *tags.Tags, numTrees int, sc *graph.Scratch, res *Result) {
	n := int(g.N)
	parent, first, last, low, high := tg.Parent, tg.First, tg.Last, tg.Low, tg.High
	ufbuf := sc.GetInt32(n)
	e.Iota(ufbuf, 0)
	u := uf.Wrap(ufbuf)
	// Skeleton tree arcs: the tree edge (p(v), v) is in G' iff it is not
	// a fence edge (Alg. 1 line 11, evaluated parent-side). Walked from
	// the top id down, like every union pass over forest-parent edges
	// (see uf.UF.Union).
	e.For(n, func(i int) {
		v := n - 1 - i
		if p := parent[v]; p != -1 && !(first[p] <= low[v] && last[p] >= high[v]) {
			u.Union(int32(v), p)
		}
	})
	// Snapshot the sets the tree unions left and pick the one holding the
	// most arcs. Sets only merge, so an arc with both ends in big is
	// already inside one set.
	comp := sc.GetInt32(n)
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			comp[v] = u.Find(int32(v))
		}
	})
	big := conn.DominantSet(g, comp)
	// Skeleton cross arcs: non-tree, non-back (Alg. 1 line 13). The
	// degree-aware blocked arc walk keeps hubs from serializing; all
	// predicates are inlined interval tests on the segment's fixed v.
	// big's arcs are skipped whole: an edge with one end in big is unioned
	// from its other end, every other edge from its smaller end.
	e.ForBlock(g.NumArcs(), 4096, func(lo, hi int) {
		for v, adj := range g.ArcSegments(lo, hi) {
			if comp[v] == big {
				continue
			}
			fv, lv := first[v], last[v]
			for _, w := range adj {
				if v == w || (v > w && comp[w] != big) {
					continue // self-loop, or unioned from w
				}
				if parent[w] == v || parent[v] == w {
					continue // (parallels a) tree edge: handled above
				}
				fw := first[w]
				if fv <= fw && lv >= fw {
					continue // back edge: v is an ancestor of w
				}
				if fw <= fv && last[w] >= fv {
					continue // back edge: w is an ancestor of v
				}
				u.Union(v, w)
			}
		}
	})
	// Dense labels: rank the union-find roots by a prefix sum, exactly
	// conn's Normalize but over arena buffers.
	isRoot := sc.GetInt32(n)
	e.For(n, func(v int) {
		c := u.Find(int32(v))
		comp[v] = c
		if c == int32(v) {
			isRoot[v] = 1
		} else {
			isRoot[v] = 0
		}
	})
	numLabels := int(prim.ExclusiveScanInt32In(e, isRoot))
	// Fused finalization: one parallel pass writes the dense label,
	// assigns the component head across fence edges, and counts label
	// members (the LabelSizes cache). Tree roots are isolated in the
	// skeleton, so a root is the sole writer of its label's head slot
	// (-1: a root singleton is not a BCC); every other label's head
	// writers agree on the unique head (Thm. 4.9) and store it
	// atomically to keep the concurrent same-value writes well-defined
	// under the Go memory model. A block counts each run of consecutive
	// non-root vertices with one label and adds the run once, not per
	// vertex; a label can span blocks, so the add stays atomic.
	label := make([]int32, n) // retained by the Result: never arena-backed
	head := make([]int32, numLabels)
	count := make([]int32, numLabels)
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		runL, runN := int32(-1), int32(0)
		for v := lo; v < hi; v++ {
			l := isRoot[comp[v]]
			label[v] = l
			p := parent[v]
			if p == -1 {
				head[l] = -1
				continue
			}
			if l != runL {
				if runN > 0 {
					atomic.AddInt32(&count[runL], runN)
				}
				runL, runN = l, 0
			}
			runN++
			if comp[p] != comp[v] {
				atomic.StoreInt32(&head[l], p)
			}
		}
		if runN > 0 {
			atomic.AddInt32(&count[runL], runN)
		}
	})
	sc.PutInt32(ufbuf, comp, isRoot)
	res.Label = label
	res.Head = head
	res.NumLabels = numLabels
	res.NumBCC = numLabels - numTrees
	res.labelCount = count
}

// Blocks materializes the explicit biconnected components as sorted vertex
// sets (the label's vertices plus its head). Intended for verification and
// modest-size outputs; the O(n) Label/Head representation is the scalable
// interface.
func (r *Result) Blocks() [][]int32 {
	buckets := make([][]int32, r.NumLabels)
	for v, l := range r.Label {
		if r.Parent[v] != -1 { // non-root vertices define block membership
			buckets[l] = append(buckets[l], int32(v))
		}
	}
	var blocks [][]int32
	for l, members := range buckets {
		if r.Head[l] == -1 {
			continue
		}
		blk := append([]int32{r.Head[l]}, members...)
		sortInt32(blk) // canonical form
		blocks = append(blocks, blk)
	}
	return blocks
}

// ArticulationPoints returns the articulation points in increasing vertex
// order: vertices belonging to at least two blocks (Thm. 4.4: exactly the
// BCC heads, counting the parent-side block for non-roots). The answer is
// computed on first use together with the block-cut tree, guarded by a
// sync.Once — concurrent first calls on a shared Result are safe and all
// return the same cached slice (treat it as read-only). Serving
// constructors precompute it (see PrecomputeTopologyIn), making this a
// lock-free read on their snapshots.
func (r *Result) ArticulationPoints() []int32 {
	r.precomputeTopology(nil)
	return r.artPoints
}

// computeArticulationPoints is the parallel pass behind ArticulationPoints.
// The result is never nil (an empty answer is a non-nil empty slice, so the
// cache can distinguish "computed, none" from "not computed").
func computeArticulationPoints(e *parallel.Exec, r *Result) []int32 {
	n := len(r.Label)
	blocksOf := make([]int32, n)
	e.ForBlock(r.NumLabels, parallel.DefaultGrain, func(lo, hi int) {
		for l := lo; l < hi; l++ {
			if h := r.Head[l]; h != -1 {
				atomic.AddInt32(&blocksOf[h], 1)
			}
		}
	})
	out := prim.PackIndicesIn(e, n, func(v int) bool {
		c := blocksOf[v]
		if r.Parent[v] != -1 {
			c++
		}
		return c >= 2
	})
	if out == nil {
		out = []int32{}
	}
	return out
}

// PrecomputeTopologyIn populates the ArticulationPoints and BlockCutTree
// caches on the execution context e (nil = the process-global default).
// core.BCC leaves them lazy (a one-shot decomposition that never queries
// the topology should not pay ~2n int32 for it); serving constructors —
// Runner, Store, engine adapters, bfsbcc, the Index build — call this
// before publishing a snapshot so queries never hit the compute path, and
// pass their per-run context so the whole build stays on it. Note the
// context only applies when this call is the one that populates the
// cache. Idempotent and safe to call concurrently with the lazy accessors
// (all paths funnel through one sync.Once).
func (r *Result) PrecomputeTopologyIn(e *parallel.Exec) { r.precomputeTopology(e) }

func (r *Result) precomputeTopology(e *parallel.Exec) {
	r.topoOnce.Do(func() {
		if r.artPoints == nil {
			r.artPoints = computeArticulationPoints(e, r)
		}
		if r.bct == nil {
			r.bct = buildBlockCutTree(e, r, r.artPoints)
		}
	})
}

// IsBridge reports whether the edge {u,w} of g is a bridge: its block has
// exactly two vertices and the edge is not duplicated in the multigraph.
func (r *Result) IsBridge(g *graph.Graph, u, w int32) bool {
	if u == w {
		return false
	}
	// Orient so that w is the child.
	if r.Parent[w] != u {
		u, w = w, u
		if r.Parent[w] != u {
			return false // non-tree edges are never bridges
		}
	}
	return r.isTreeBridge(g, r.LabelSizes(), w)
}

// isTreeBridge reports whether the tree edge (Parent[v], v) is a bridge:
// no other vertex shares v's label — so v's skeleton component is the
// singleton {v} and its block is exactly {Parent[v], v} — and the edge has
// multiplicity 1. count is LabelSizes(). Every bridge is a tree edge, so
// this test over the n parent edges finds them all.
func (r *Result) isTreeBridge(g *graph.Graph, count []int32, v int32) bool {
	p := r.Parent[v]
	if p == -1 || count[r.Label[v]] != 1 {
		return false
	}
	mult := 0
	for _, x := range g.Neighbors(v) {
		if x == p {
			mult++
		}
	}
	return mult == 1
}

// Bridges returns all bridge edges of g.
func (r *Result) Bridges(g *graph.Graph) []graph.Edge {
	n := len(r.Label)
	count := r.LabelSizes()
	var out []graph.Edge
	for v := 0; v < n; v++ {
		if !r.isTreeBridge(g, count, int32(v)) {
			continue
		}
		e := graph.Edge{U: r.Parent[v], W: int32(v)}
		if e.U > e.W {
			e.U, e.W = e.W, e.U
		}
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].W < out[b].W
	})
	return out
}

func sortInt32(a []int32) {
	// Blocks can be as large as the graph (the giant biconnected core of a
	// social network); use the parallel sample sort.
	prim.SortInt32(a)
}

// Biconnected reports whether u and w lie in a common block, in O(1):
// either they share a label, or one is the component head of the other's
// label. Roots and isolated vertices are biconnected with nothing.
func (r *Result) Biconnected(u, w int32) bool {
	if u == w {
		return false
	}
	lu, lw := r.Label[u], r.Label[w]
	if r.Parent[u] != -1 && r.Parent[w] != -1 && lu == lw {
		return true
	}
	if r.Parent[w] != -1 && r.Head[lw] == u {
		return true
	}
	if r.Parent[u] != -1 && r.Head[lu] == w {
		return true
	}
	return false
}
