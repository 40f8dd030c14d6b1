// Package ldd implements the low-diameter decomposition of Miller, Peng,
// and Xu ("Parallel graph decompositions using random shifts", SPAA 2013),
// the first half of the LDD-UF-JTB connectivity algorithm the paper proves
// efficient (Thm. 5.1).
//
// Every vertex v draws an exponential shift δ_v ~ Exp(β) and starts at
// round ⌊δ_max⌋ − ⌊δ_v⌋, the MPX order: in its start round v becomes a
// cluster center if nothing has claimed it yet, and clusters grow by one
// BFS hop per round. A few centers open early and most vertices are
// claimed by growth, which gives MPX's bound of 1 − e^{−β} (18.1% at the
// default β = 0.2) on the probability that an edge is cut, so connectivity
// hands O(βm) edges to its union-find. Every vertex has started by round
// ⌊δ_max⌋ = O(log n / β) whp, so that bounds the rounds too. A round's
// candidates are activated inside the expansion's parallel loop: a block
// that reaches one that nothing has claimed claims it and expands it in
// the same step.
//
// On the benchmark's seed-7 inputs at seed 0, one worker, the
// decomposition cuts 1 of RMAT-16-8's 524,033 edges in 79 rounds, and
// 8,598 of the 360×360 sampled grid's 155,356 (5.5%) in 79. Starting v
// at round ⌊δ_v⌋ instead opens clusters at about 18% of the vertices in
// round 0 and cuts 441,634 (84.3%, 79 rounds) and 63,553 (40.9%, 50
// rounds), which the union-find must then merge. The price is more, and
// sparser, rounds on large-diameter inputs, whose BFS frontiers are rings
// around a few centers: at 2 workers a 10⁶-vertex chain's First-CC takes
// 99 ms instead of 72 (medians of seven rounds of seven runs), and its
// whole FAST-BCC build 240 ms instead of 210.
//
// The optional local-search mode is the optimization the paper evaluates in
// Fig. 6 (hash bag + local search): when the frontier is small, each
// frontier vertex explores multiple hops at once, cutting the number of
// synchronization rounds on large-diameter graphs. This may claim vertices
// rounds before one-hop growth would reach them, which perturbs the
// decomposition's radius guarantee but preserves the only property
// connectivity needs — every cluster induces a connected subgraph. (The next frontier is collected in
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
	// Shifts: shift(v) = floor(Exp(beta)) computed from a hash of
	// (seed, v) so the decomposition is deterministic for a given seed.
	shift := sc.GetInt32(n)
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			u := prim.Hash64(opt.Seed ^ (uint64(v)*0x9e3779b97f4a7c15 + 0x1234567))
			// Uniform in (0,1]: avoid log(0).
			x := (float64(u>>11) + 1) / (1 << 53)
			shift[v] = int32(math.Floor(-math.Log(x) / beta))
		}
	})
	// Vertices grouped by start round maxShift − shift(v), the MPX order,
	// via counting sort (arena-backed; returned after the round loop).
	maxShift := prim.MaxInt32In(e, shift, 0)
	byRound, roundOff := prim.CountingSortByKeyArena(e, n, maxShift+1, func(i int) int32 { return maxShift - shift[i] }, sc)
	sc.PutInt32(shift)

	x := newExpansion(e, g, res, opt.Filter)
	frontier := sc.GetInt32(n)[:0]
	visitedTotal := 0
	round := 0
	for ; visitedTotal < n; round++ {
		// This round's candidates open clusters of their own if nothing
		// has claimed them by the time the expansion reaches them. Every
		// vertex is a candidate in some round up to maxShift, so the loop
		// ends by then.
		cand := byRound[roundOff[round]:roundOff[round+1]]
		if len(frontier)+len(cand) == 0 {
			continue
		}
		var next []int32
		var claimed int
		if opt.LocalSearch && len(frontier)+len(cand) < localThreshold(n) {
			next, claimed = x.expandLocal(frontier, cand, sc.GetInt32(n))
		} else {
			next, claimed = x.expandOneHop(frontier, cand, sc.GetInt32(n))
		}
		visitedTotal += claimed
		sc.PutInt32(frontier)
		frontier = next
	}
	sc.PutInt32(frontier, byRound, roundOff)
	res.Rounds = round
	return res
}

// expansion is one Decompose call's expansion step: the inputs and
// outputs of the current round and the two block bodies that read them.
// The bodies and cursors are built once per call, so a round allocates
// nothing: on RMAT-14-8 a Decompose takes 13–22 allocations at 1–4
// workers, where a closure and two cursors built per round took 82–90
// over the 37 rounds that order needed.
type expansion struct {
	e      *parallel.Exec
	g      *graph.Graph
	res    *Result
	filter func(u, w int32) bool
	// frontier and cand are the step's input: the vertices claimed in the
	// previous step, and the round's candidates. Item i of the step is
	// frontier[i] for i < len(frontier), else cand[i-len(frontier)].
	frontier, cand []int32
	// next receives the next frontier through the write cursor cur.
	next []int32
	cur  atomic.Int64
	// claimed counts the claims that cur does not: the candidates, and in
	// local-search mode every claim.
	claimed atomic.Int64
	// oneHop and local are the block bodies of expandOneHop and
	// expandLocal.
	oneHop, local func(lo, hi int)
}

func newExpansion(e *parallel.Exec, g *graph.Graph, res *Result, filter func(u, w int32) bool) *expansion {
	x := &expansion{e: e, g: g, res: res, filter: filter}
	x.oneHop = x.oneHopBlock
	x.local = x.localBlock
	return x
}

// run executes one step over frontier and cand with body, collecting the
// next frontier into next (len(res.Center) slots: a step puts each vertex
// in it at most once).
func (x *expansion) run(frontier, cand, next []int32, grain int, body func(lo, hi int)) {
	x.frontier, x.cand, x.next = frontier, cand, next
	x.cur.Store(0)
	x.claimed.Store(0)
	x.e.ForBlock(len(frontier)+len(cand), grain, body)
}

// item returns step item i and the center it expands for, or ok = false
// for a candidate that something has claimed already. A candidate this
// call claims becomes its own center; *claimed counts it.
func (x *expansion) item(i int, claimed *int) (u, c int32, ok bool) {
	if i < len(x.frontier) {
		u = x.frontier[i]
		return u, x.res.Center[u], true
	}
	v := x.cand[i-len(x.frontier)]
	if atomic.LoadInt32(&x.res.Center[v]) != -1 ||
		!atomic.CompareAndSwapInt32(&x.res.Center[v], -1, v) {
		return 0, 0, false
	}
	*claimed++
	return v, v, true
}

// expandOneHop claims the unvisited neighbors of the frontier and of the
// round's candidates that are still unclaimed (one BFS hop); such a
// candidate is claimed as a center and expanded in the same step, so the
// activation needs no loop of its own. It returns the next frontier (the
// claimed neighbors) and the number of vertices claimed, candidates
// included.
//
// The next frontier is collected into a single arena buffer through an
// atomic write cursor that each block advances once per batch of claims:
// the block stages its claims in a prim.Appender, a fixed array, so
// nothing regrows. An add per claim made the workers pass the cursor's
// cache line back and forth: in a 2-P CPU profile of 60 First-CC runs on
// the 360×360 sampled grid, that add and conn's two per-edge forest
// cursors took 0.46 s of conn.Connectivity's 1.48 s, and with the batches
// Connectivity took 0.90 s. With one worker the blocks run inline in
// order, frontier before candidates, so the sequential claim order — and
// with it the whole decomposition — is deterministic.
func (x *expansion) expandOneHop(frontier, cand, next []int32) ([]int32, int) {
	x.run(frontier, cand, next, 256, x.oneHop)
	n := int(x.cur.Load())
	return next[:n], n + int(x.claimed.Load())
}

func (x *expansion) oneHopBlock(lo, hi int) {
	res, filter := x.res, x.filter
	out := prim.NewAppender(x.next, &x.cur)
	centers := 0
	for i := lo; i < hi; i++ {
		u, c, ok := x.item(i, &centers)
		if !ok {
			continue
		}
		for _, w := range x.g.Neighbors(u) {
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
	if centers > 0 {
		x.claimed.Add(int64(centers))
	}
}

// expandLocal lets each frontier vertex, and each candidate it claims as
// in expandOneHop, claim up to localBudget vertices by a depth-limited
// local walk. Deferred vertices (walks whose budget ran out) join the next
// frontier together with the walk boundary, so the claim count is tracked
// separately from the next frontier size.
//
// The paper's version collects the next frontier in a parallel hash bag
// because its edge-parallel claiming can insert a vertex twice. Here every
// vertex is claimed by exactly one CAS winner and only its claimer can
// defer it, so duplicates are impossible and one shared cursor-collected
// buffer, filled through per-block batches (same technique as
// expandOneHop), is strictly cheaper; the package comment records the
// substitution.
func (x *expansion) expandLocal(frontier, cand, next []int32) ([]int32, int) {
	x.run(frontier, cand, next, 4, x.local)
	return next[:x.cur.Load()], int(x.claimed.Load())
}

func (x *expansion) localBlock(lo, hi int) {
	res, filter := x.res, x.filter
	out := prim.NewAppender(x.next, &x.cur)
	stack := make([]int32, 0, localBudget)
	blockClaimed := 0
	for i := lo; i < hi; i++ {
		u, c, ok := x.item(i, &blockClaimed)
		if !ok {
			continue
		}
		stack = append(stack[:0], u)
		claimed := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if claimed >= localBudget {
				// Budget exhausted: defer v to the next round.
				out.Push(v)
				continue
			}
			done := true
			for _, w := range x.g.Neighbors(v) {
				if filter != nil && !filter(v, w) {
					continue
				}
				if claimed >= localBudget {
					done = false // v may have unclaimed neighbors left
					break
				}
				if atomic.LoadInt32(&res.Center[w]) == -1 &&
					atomic.CompareAndSwapInt32(&res.Center[w], -1, c) {
					res.Parent[w] = v
					claimed++
					stack = append(stack, w)
				}
			}
			if !done {
				out.Push(v)
			}
		}
		blockClaimed += claimed
	}
	out.Flush()
	if blockClaimed > 0 {
		x.claimed.Add(int64(blockClaimed))
	}
}
