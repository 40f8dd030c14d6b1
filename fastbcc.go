// Package fastbcc is a Go implementation of FAST-BCC — "Provably Fast and
// Space-Efficient Parallel Biconnectivity" (Dong, Wang, Gu, Sun,
// PPoPP 2023) — together with the baselines the paper evaluates.
//
// FAST-BCC computes the biconnected components (BCCs, blocks) of an
// undirected graph with O(n+m) expected work, O(log³ n) span whp, and O(n)
// auxiliary space. It follows the skeleton–connectivity framework: a
// spanning forest is computed by parallel connectivity, rooted with the
// Euler tour technique, tagged with first/last/low/high, and a second
// connectivity pass over the implicit skeleton (fence tree edges and back
// edges skipped) labels the blocks.
//
// # Quick start
//
//	g, err := fastbcc.NewGraphFromEdges(4, []fastbcc.Edge{
//		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0}, {U: 2, W: 3},
//	})
//	res := fastbcc.BCC(g, nil)
//	fmt.Println(res.NumBCC)              // 2: the triangle and the bridge
//	fmt.Println(res.ArticulationPoints()) // [2]
//
// The result is the paper's O(n) representation — a label per non-root
// vertex plus a component head per label; explicit blocks, articulation
// points, and bridges are derived on demand.
//
// # Choosing an algorithm
//
// Every BCC implementation in the repository — FAST-BCC plus the paper's
// baselines (sequential Hopcroft–Tarjan, a faithful Tarjan–Vishkin, a
// GBBS-style BFS-skeleton algorithm, and an SM'14-style algorithm) — is a
// registered engine producing the same Result representation, selected by
// Options.Algorithm:
//
//	res := fastbcc.BCC(g, &fastbcc.Options{Algorithm: "gbbs"})
//	for _, a := range fastbcc.Algorithms() { ... } // the choices + caps
//
// All engines return identical decompositions (the cross-test suite
// enforces it), so the whole query and serving surface — Index, Runner,
// Store, cmd/bccd — works identically on any of them; the choice trades
// construction speed, memory, and determinism (see the README's
// capabilities table). Engines with native restrictions are normalized:
// the SM'14 baseline only supports connected graphs, so the registry
// runs it per connected component and merges. BCCSeq exposes
// Hopcroft–Tarjan's explicit block output directly for convenience.
//
// # Performance
//
// The hot paths are engineered to pay no synchronization or allocation tax
// beyond the algorithm's own work. Parallel loops run on a lazily-started
// persistent worker pool (no goroutine spawn per loop), CSR construction
// is atomic-free (per-worker degree counting, prefix-sum merged scatter
// ranges, and one stable transpose that leaves every neighbor list
// sorted), and a FAST-BCC run draws its ~16n int32 of auxiliary buffers
// from an arena. A plain BCC call recycles them within the run; a Runner
// (see Serving) also recycles them across runs:
//
//	r := fastbcc.NewRunner(0)
//	defer r.Close()
//	for _, g := range graphs {
//		res := r.Run(g, nil)
//		... // res never aliases pooled memory; safe to retain
//	}
//
// # Serving
//
// Every entry point of this package is safe to call concurrently, including
// concurrent BCC calls on the same *Graph (graphs are never mutated) and
// concurrent calls with different Options.Threads values. Threads is a
// per-call worker cap: it bounds how many workers that one call may use,
// mutates no global state, and restarts no pool. (Historically Threads
// called parallel.SetProcs, so two concurrent callers raced to resize one
// process-global pool; that global mutation is gone.)
//
// A process that serves many decompositions should use a Runner, which
// bounds the pool goroutines shared by all in-flight runs (each calling
// goroutine additionally works on its own run) and recycles each run's
// ~16n int32 of scratch buffers automatically:
//
//	r := fastbcc.NewRunner(8) // 7 pool workers shared by all runs
//	defer r.Close()
//	... // from any number of goroutines:
//	res := r.Run(g, &fastbcc.Options{Threads: 4}) // ≤ 4 workers for this run
//
// Runner.Run calls are independent: concurrent runs share the Runner's
// workers through dynamic block claiming, each within its own Threads cap.
// Results never alias pooled memory, so they remain valid indefinitely.
// One process-wide parallel.SetProcs sizing (or the GOMAXPROCS default)
// still governs plain BCC calls without a Runner.
//
// # Online queries
//
// A Result is a decomposition; an Index answers questions about it. The
// index flattens the block-cut tree and the bridge tree (over the
// 2-edge-connected components) into rooted array-based forests with
// Euler-tour LCA, so after an O(n+m) parallel build every scalar query is
// O(1) and allocation-free:
//
//	res, idx := fastbcc.BuildIndex(g, nil)
//	idx.Biconnected(u, v)       // share a block?
//	idx.Separates(x, u, v)      // does removing x disconnect u from v?
//	idx.NumCutsOnPath(u, v)     // single points of failure between u and v
//	idx.TwoEdgeConnected(u, v)  // immune to any single link failure?
//	idx.CutsOnPath(u, v)        // ... enumerated (allocates the output)
//	idx.BridgesOnPath(u, v)     // the links every u-v route crosses
//
// For serving many graphs under churn, a Store keeps a catalog of named
// graphs with versioned, ref-counted (graph, Result, Index) snapshots:
// Acquire hands out the current snapshot, rebuilds compute on the Store's
// Runner budget and swap atomically, and readers holding a superseded
// version keep querying it safely until they Release. cmd/bccd exposes a
// Store over HTTP/JSON.
package fastbcc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqbcc"
)

// Graph is an undirected graph in compressed-sparse-row form.
type Graph = graph.Graph

// Edge is an undirected edge {U, W}.
type Edge = graph.Edge

// Result is a biconnectivity decomposition in the O(n) label/head
// representation, with per-step timings and a space estimate.
type Result = core.Result

// SeqResult is the explicit block decomposition produced by BCCSeq.
type SeqResult = seqbcc.Result

// Options tunes the decomposition run. The zero value is a sensible
// default (the FAST-BCC engine on the default execution context).
type Options struct {
	// Algorithm selects the engine by registry name ("" = "fast", the
	// paper's FAST-BCC). Algorithms() enumerates the choices with their
	// capabilities; unknown names make BCC panic — validate user-supplied
	// names up front (the Store does) or pick from Algorithms().
	Algorithm string
	// Seed drives the randomized connectivity; runs with equal seeds on
	// equal graphs produce identical spanning forests.
	Seed uint64
	// LocalSearch enables the hash-bag/local-search connectivity
	// optimization (1.5× average speedup in the paper, Fig. 6).
	LocalSearch bool
	// Threads caps the number of workers this one call may use
	// (0 = no cap beyond the executing pool's size). The cap is purely
	// per-call: it mutates no global state and restarts no pool, so
	// concurrent calls with different Threads values are safe and
	// isolated. See the package-level Serving section.
	Threads int
	// Source is the root vertex for engines that grow a tree from a seed
	// vertex (the SM'14 baseline's BFS root); the default engine ignores
	// it.
	Source int32
}

// AlgorithmInfo describes one registered BCC engine: its registry name
// plus capability flags for choosing among them (see the README's
// "Choosing an algorithm" table).
type AlgorithmInfo struct {
	// Name is the value for Options.Algorithm.
	Name string
	// ConnectedOnly marks engines whose native implementation supports
	// only connected graphs; the serving stack transparently runs them
	// per component, so any graph still works.
	ConnectedOnly bool
	// Sequential marks single-threaded engines that ignore Threads.
	Sequential bool
	// Deterministic marks engines whose full Result (labels, parents,
	// heads — not just the block decomposition, which is canonical for
	// every engine) is identical across runs with equal Options.
	Deterministic bool
}

// Algorithms enumerates the registered BCC engines, default first. Every
// name is valid for Options.Algorithm everywhere an Options is accepted
// (BCC, Runner, Store, cmd/bccd's "algo" field).
func Algorithms() []AlgorithmInfo {
	engines := engine.All()
	out := make([]AlgorithmInfo, len(engines))
	for i, a := range engines {
		c := a.Caps()
		out[i] = AlgorithmInfo{
			Name:          a.Name(),
			ConnectedOnly: c.ConnectedOnly,
			Sequential:    c.Sequential,
			Deterministic: c.Deterministic,
		}
	}
	return out
}

// ErrUnknownAlgorithm is wrapped by the errors Store.Load/Rebuild return
// for an unregistered Options.Algorithm, so serving layers can classify
// bad names with errors.Is (cmd/bccd maps them to HTTP 400).
var ErrUnknownAlgorithm = engine.ErrUnknownAlgorithm

// resolveAlgorithm canonicalizes an algorithm name ("" selects the
// default engine) and validates it against the registry, returning an
// error that lists the valid names.
func resolveAlgorithm(name string) (string, error) {
	a, err := engine.Get(name)
	if err != nil {
		return "", fmt.Errorf("fastbcc: %w", err)
	}
	return a.Name(), nil
}

// runEngine dispatches one decomposition to the selected engine. exec
// overrides the Threads-derived context when non-nil, and sc supplies the
// auxiliary buffers when non-nil (the Runner path passes both). Every
// Result it returns carries the precomputed topology caches, built on the
// run's context: the engines leave them lazy, as core.BCC does.
func runEngine(g *Graph, o Options, exec *parallel.Exec, sc *graph.Scratch) (*Result, error) {
	a, err := engine.Get(o.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("fastbcc: %w", err)
	}
	opt := engine.RunOptions{
		Exec:        exec,
		Scratch:     sc,
		Source:      o.Source,
		Seed:        o.Seed,
		LocalSearch: o.LocalSearch,
	}
	if exec == nil {
		opt.Threads = o.Threads
	}
	res, err := a.Run(g, opt)
	if err != nil {
		return nil, fmt.Errorf("fastbcc: algorithm %q: %w", a.Name(), err)
	}
	res.PrecomputeTopologyIn(opt.Context())
	return res, nil
}

// NewGraphFromEdges builds a symmetric CSR graph over n vertices. Self
// loops and parallel edges are allowed; they never change the vertex-set
// block decomposition.
func NewGraphFromEdges(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// LoadGraph reads a graph from a binary file written by SaveGraph.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes the graph to path in the package's binary format.
func SaveGraph(g *Graph, path string) error { return g.SaveFile(path) }

// BCC computes the biconnected components of g with the engine selected
// by opts.Algorithm (default FAST-BCC). opts may be nil for defaults.
// BCC panics on an unknown Algorithm name — a programmer error, since
// Algorithms() enumerates the valid ones; serving layers that accept
// user-supplied names should go through a Store, which validates and
// returns an error instead.
//
// On the default engine the Result's topology caches (ArticulationPoints,
// BlockCutTree) are built lazily on first query, guarded by a sync.Once
// (concurrent first queries are safe), so a one-shot decomposition that
// never asks for them pays nothing. Results produced by a Runner, Store,
// or explicit engine selection precompute the caches before returning —
// the serving paths have no first-query latency cliff.
func BCC(g *Graph, opts *Options) *Result {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Algorithm == "" || o.Algorithm == engine.Default {
		// The default engine keeps its direct path: no registry hop, and
		// the per-call Threads cap over the default pool mutates no
		// global state.
		var ex *parallel.Exec
		if o.Threads > 0 {
			ex = parallel.Limit(o.Threads)
		}
		return core.BCC(g, core.Options{Seed: o.Seed, LocalSearch: o.LocalSearch, Exec: ex})
	}
	res, err := runEngine(g, o, nil, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// BCCSeq computes the biconnected components with the sequential
// Hopcroft–Tarjan algorithm (the paper's SEQ baseline).
func BCCSeq(g *Graph) *SeqResult { return seqbcc.BCC(g) }

// ArticulationPoints returns the articulation points of g.
func ArticulationPoints(g *Graph) []int32 {
	return BCC(g, nil).ArticulationPoints()
}

// Bridges returns the bridge edges of g, each with U < W, sorted.
func Bridges(g *Graph) []Edge {
	return BCC(g, nil).Bridges(g)
}

// Generators for realistic workloads, re-exported from internal/gen so
// downstream users can reproduce the paper's graph categories.
var (
	// GenerateChain returns a path of n vertices (the paper's Chn graphs).
	GenerateChain = gen.Chain
	// GenerateGrid returns a rows×cols grid, circular per the paper's
	// SQR/REC graphs when circular is true.
	GenerateGrid = gen.Grid2D
	// GenerateSampledGrid keeps each circular-grid edge with probability p
	// (the paper's SQR'/REC').
	GenerateSampledGrid = gen.SampledGrid
	// GenerateRMAT returns a power-law graph resembling social/web graphs.
	GenerateRMAT = gen.RMAT
	// GenerateKNN returns the k-nearest-neighbor graph of n random points.
	GenerateKNN = gen.KNN
	// GenerateRoadLike returns a grid-with-shortcuts road-network analog.
	GenerateRoadLike = gen.RoadLike
)
