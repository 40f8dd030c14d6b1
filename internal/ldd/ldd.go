// Package ldd implements the low-diameter decomposition of Miller, Peng,
// and Xu ("Parallel graph decompositions using random shifts", SPAA 2013),
// the first half of the LDD-UF-JTB connectivity algorithm the paper proves
// efficient (Thm. 5.1).
//
// Every vertex v draws an exponential shift δ_v ~ Exp(β). Vertex v becomes
// a cluster center at round ⌊δ_v⌋ if nothing has claimed it yet; clusters
// grow by one BFS hop per round. Every cluster has diameter O(log n / β)
// whp, so the BFS terminates in O(log n / β) rounds.
//
// The O(β m) bound on inter-cluster edges does not hold for this order.
// MPX start v at δ_max − δ_v, so few centers open early and most vertices
// are claimed by growth (GBBS's generate_shifts adds e^{iβ} centers in
// round i); here 1 − e^{−β} of the vertices, about 18% at the default
// β = 0.2, are centers in round 0. Measured at seed 7 on 2 Ps, this order
// cuts 448,731 of RMAT-16-8's 524,033 edges (85.6%) and 63,723 of the
// 360×360 sampled grid's 155,356 (41.0%, 43 rounds); starting v at round
// ⌊δ_max⌋ − ⌊δ_v⌋ instead cuts 55,061 (10.5%) and 10,889 (7.0%, 64
// rounds). Connectivity is correct either way, since every cut edge goes
// to the union-find; the order trades union-find work against BFS rounds
// and is left as is until an A/B on both graph classes settles it.
//
// The optional local-search mode is the optimization the paper evaluates in
// Fig. 6 (hash bag + local search): when the frontier is small, each
// frontier vertex explores multiple hops at once, cutting the number of
// synchronization rounds on large-diameter graphs. This may claim vertices
// before their activation round, which perturbs the decomposition's radius
// guarantee but preserves the only property connectivity needs — every
// cluster induces a connected subgraph. (The next frontier is collected in
// per-block buffers rather than the paper's hash bag; see expandLocal.)
package ldd

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
)

// Result describes a low-diameter decomposition.
type Result struct {
	// Center[v] is the cluster center that claimed v (Center[c] == c for
	// centers). Every value is a valid vertex; isolated vertices are their
	// own centers.
	Center []int32
	// Parent[v] is the BFS tree edge through which v was claimed, or -1
	// for cluster centers. The parent edges of one cluster form a tree
	// spanning the cluster.
	Parent []int32
	// Rounds is the number of synchronization rounds executed.
	Rounds int
}

// Options configures Decompose.
type Options struct {
	// Beta is the exponential rate; larger means smaller clusters and more
	// cut edges. Zero selects the default 0.2.
	Beta float64
	// Seed drives the per-vertex shifts.
	Seed uint64
	// LocalSearch enables multi-hop frontier expansion when the frontier
	// is small (the paper's "Opt" variant, Fig. 6).
	LocalSearch bool
	// Filter, when non-nil, restricts the decomposition to edges with
	// Filter(u, w) true. The GBBS-style baseline (internal/bfsbcc) uses it
	// to run on its implicit skeleton without materializing it.
	Filter func(u, w int32) bool
	// Scratch, when non-nil, supplies the n-sized temporaries (shifts,
	// frontiers) and backs the returned Center/Parent arrays, whose
	// ownership then passes to the caller.
	Scratch *graph.Scratch
	// Exec is the execution context parallel loops run on (nil = the
	// process-global default).
	Exec *parallel.Exec
}

// localBudget bounds the vertices one frontier vertex may claim per round
// in local-search mode.
const localBudget = 64

// localThreshold: local search kicks in when the frontier is smaller than
// max(n/64, 1024) — small frontiers are where round-synchronization
// overhead dominates.
func localThreshold(n int) int {
	t := n / 64
	if t < 1024 {
		t = 1024
	}
	return t
}

// Decompose computes a low-diameter decomposition of g.
func Decompose(g *graph.Graph, opt Options) *Result {
	n := int(g.N)
	sc := opt.Scratch
	if sc == nil {
		// Call-private arena: the frontier buffers round-trip every BFS
		// round (there can be hundreds on high-diameter graphs), so even
		// a one-shot caller wants them recycled. The returned
		// Center/Parent stay arena-backed; ownership passes to the
		// caller and the arena dies with the call, so nothing can ever
		// recycle them out from under the caller.
		sc = graph.NewScratch()
	}
	e := opt.Exec
	beta := opt.Beta
	if beta <= 0 {
		beta = 0.2
	}
	res := &Result{
		Center: sc.GetInt32(n),
		Parent: sc.GetInt32(n),
	}
	parallel.FillIn(e, res.Center, -1)
	parallel.FillIn(e, res.Parent, -1)
	if n == 0 {
		return res
	}
	// Shift rounds: round(v) = floor(Exp(beta)) computed from a hash of
	// (seed, v) so the decomposition is deterministic for a given seed.
	shift := sc.GetInt32(n)
	e.For(n, func(v int) {
		u := prim.Hash64(opt.Seed ^ (uint64(v)*0x9e3779b97f4a7c15 + 0x1234567))
		// Uniform in (0,1]: avoid log(0).
		x := (float64(u>>11) + 1) / (1 << 53)
		shift[v] = int32(math.Floor(-math.Log(x) / beta))
	})
	// Vertices grouped by activation round via counting sort (arena-backed;
	// returned after the round loop).
	maxShift := prim.MaxInt32In(e, shift, 0)
	byRound, roundOff := prim.CountingSortByKeyArena(e, n, maxShift+1, func(i int) int32 { return shift[i] }, sc)
	sc.PutInt32(shift)

	frontier := sc.GetInt32(n)[:0]
	visitedTotal := 0
	round := 0
	for visitedTotal < n {
		// Activate this round's centers (if still unclaimed).
		if round <= int(maxShift) {
			newCenters := byRound[roundOff[round]:roundOff[round+1]]
			for _, v := range newCenters {
				if atomic.CompareAndSwapInt32(&res.Center[v], -1, v) {
					frontier = append(frontier, v)
					visitedTotal++
				}
			}
		}
		if len(frontier) == 0 {
			round++
			continue
		}
		var next []int32
		var claimed int
		if opt.LocalSearch && len(frontier) < localThreshold(n) {
			next, claimed = expandLocal(e, g, frontier, res, opt.Filter, sc)
		} else {
			next, claimed = expandOneHop(e, g, frontier, res, opt.Filter, sc)
		}
		visitedTotal += claimed
		sc.PutInt32(frontier)
		frontier = next
		round++
	}
	sc.PutInt32(frontier, byRound, roundOff)
	res.Rounds = round
	return res
}

// expandOneHop claims the unvisited neighbors of the frontier (one BFS
// hop). It returns the next frontier and the number of newly claimed
// vertices (equal here, but not in local-search mode).
//
// The next frontier is collected into a single arena buffer through an
// atomic write cursor that each block advances once per batch of claims:
// the block stages its claims in a prim.Appender, a fixed array, so
// nothing regrows. An add per claim made the workers pass the cursor's
// cache line back and forth: in a 2-P CPU profile of 60 First-CC runs on
// the 360×360 sampled grid, that add and conn's two per-edge forest
// cursors took 0.46 s of conn.Connectivity's 1.48 s, and with the batches
// Connectivity took 0.90 s. With one worker the blocks run inline in
// order, so the sequential claim order — and with it the whole
// decomposition — is unchanged.
func expandOneHop(e *parallel.Exec, g *graph.Graph, frontier []int32, res *Result, filter func(u, w int32) bool, sc *graph.Scratch) ([]int32, int) {
	next := sc.GetInt32(len(res.Center)) // claims are bounded by n
	var cur atomic.Int64
	e.ForBlock(len(frontier), 256, func(lo, hi int) {
		out := prim.NewAppender(next, &cur)
		for i := lo; i < hi; i++ {
			u := frontier[i]
			c := res.Center[u]
			for _, w := range g.Neighbors(u) {
				if filter != nil && !filter(u, w) {
					continue
				}
				if atomic.LoadInt32(&res.Center[w]) == -1 &&
					atomic.CompareAndSwapInt32(&res.Center[w], -1, c) {
					res.Parent[w] = u
					out.Push(w)
				}
			}
		}
		out.Flush()
	})
	claimed := int(cur.Load())
	return next[:claimed], claimed
}

// expandLocal lets each frontier vertex claim up to localBudget vertices by
// a depth-limited local walk. Deferred vertices (walks whose budget ran
// out) join the next frontier together with the walk boundary, so the claim
// count is tracked separately from the next frontier size.
//
// The paper's version collects the next frontier in a parallel hash bag
// because its edge-parallel claiming can insert a vertex twice. Here every
// vertex is claimed by exactly one CAS winner and only its claimer can
// defer it, so duplicates are impossible and one shared cursor-collected
// buffer, filled through per-block batches (same technique as
// expandOneHop), is strictly cheaper; the package comment records the
// substitution. The next frontier holds deferred walk vertices as well as
// the walk boundary, so its size is bounded by claims + |frontier|.
func expandLocal(e *parallel.Exec, g *graph.Graph, frontier []int32, res *Result, filter func(u, w int32) bool, sc *graph.Scratch) ([]int32, int) {
	next := sc.GetInt32(len(res.Center) + len(frontier))
	var cur atomic.Int64
	var totalClaimed atomic.Int64
	e.ForBlock(len(frontier), 4, func(lo, hi int) {
		out := prim.NewAppender(next, &cur)
		stack := make([]int32, 0, localBudget)
		blockClaimed := 0
		for i := lo; i < hi; i++ {
			u := frontier[i]
			c := res.Center[u]
			stack = append(stack[:0], u)
			claimed := 0
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if claimed >= localBudget {
					// Budget exhausted: defer x to the next round.
					out.Push(x)
					continue
				}
				done := true
				for _, w := range g.Neighbors(x) {
					if filter != nil && !filter(x, w) {
						continue
					}
					if claimed >= localBudget {
						done = false // x may have unclaimed neighbors left
						break
					}
					if atomic.LoadInt32(&res.Center[w]) == -1 &&
						atomic.CompareAndSwapInt32(&res.Center[w], -1, c) {
						res.Parent[w] = x
						claimed++
						stack = append(stack, w)
					}
				}
				if !done {
					out.Push(x)
				}
			}
			blockClaimed += claimed
		}
		out.Flush()
		totalClaimed.Add(int64(blockClaimed))
	})
	return next[:cur.Load()], int(totalClaimed.Load())
}
