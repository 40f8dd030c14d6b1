// Package engine unifies every BCC implementation in the repository behind
// one interface and one registry, so algorithm selection is data that can
// be threaded through the whole serving stack (fastbcc.Options, Runner,
// Store, cmd/bccd) instead of a hard-wired constructor call.
//
// An Algorithm takes a graph plus per-run execution options and returns
// the paper's O(n) label/head decomposition (core.Result) — whatever its
// native output shape. Engines whose natural result is an explicit block
// list (Hopcroft–Tarjan, SM'14, Tarjan–Vishkin) are adapted with
// FromBlocks, which rebuilds the label/head representation over a
// deterministic BFS spanning forest; engines that already produce
// core.Result (FAST-BCC, the GBBS-style baseline) run natively. Every
// registered engine therefore serves the full downstream query surface:
// Blocks, ArticulationPoints, Bridges, BlockCutTree, TwoECC, and the
// bctree Index.
//
// Restrictions are capability flags, not errors. An engine registered with
// Caps.ConnectedOnly (SM'14 rejects disconnected inputs, matching the
// "n = no support" entries of the paper's Tab. 2) is transparently wrapped
// by a per-component normalizer: the graph is split into connected
// components, the raw engine runs on each induced subgraph, and the block
// lists are merged back onto original vertex ids. Callers never see
// ErrDisconnected.
//
// Adding a new algorithm is a one-package change: implement Algorithm,
// call Register in an init function (or from builtin.go), and the public
// API, Runner, Store, bccd, the CLIs, the cross-test matrix, and the
// bench engine matrix all pick it up automatically.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// ErrUnknownAlgorithm is wrapped by Get's error for unregistered names,
// so callers can classify it with errors.Is (bccd maps it to a 400).
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// Caps describes an engine's restrictions and guarantees. The flags are
// informational for callers (capability tables, scheduling hints); the
// registry uses ConnectedOnly to install the per-component normalizer.
type Caps struct {
	// ConnectedOnly marks engines whose raw implementation supports only
	// connected inputs. The registry wraps such engines so that Run still
	// accepts any graph (see Normalize).
	ConnectedOnly bool
	// Sequential marks engines that run single-threaded and ignore the
	// Exec/Threads execution options.
	Sequential bool
	// Deterministic marks engines whose Result (labels, heads, parents —
	// not just the block decomposition, which is canonical for every
	// engine) is identical across runs with equal RunOptions, independent
	// of scheduling and seeds.
	Deterministic bool
}

// String renders the capability flags compactly, e.g. "connected-only,seq".
func (c Caps) String() string {
	s := ""
	add := func(f string) {
		if s != "" {
			s += ","
		}
		s += f
	}
	if c.ConnectedOnly {
		add("connected-only")
	}
	if c.Sequential {
		add("seq")
	}
	if c.Deterministic {
		add("deterministic")
	}
	if s == "" {
		s = "-"
	}
	return s
}

// RunOptions carries the per-run execution state every engine receives.
// Engines use what applies to them and ignore the rest (a sequential
// engine ignores Exec/Threads; a deterministic one ignores Seed).
type RunOptions struct {
	// Exec is the execution context parallel loops run on (nil = the
	// process-global default pool).
	Exec *parallel.Exec
	// Threads further caps Exec for this one run (0 = no extra cap).
	Threads int
	// Scratch, when non-nil, recycles large auxiliary buffers across runs
	// (used by the FAST-BCC pipeline; other engines may ignore it).
	Scratch *graph.Scratch
	// Source is the root vertex for engines that grow a tree from a seed
	// vertex (SM'14's BFS root). Out-of-range values select vertex 0.
	Source int32
	// Seed drives randomized engines (LDD shifts in the connectivity
	// phases). Equal seeds on equal graphs reproduce the same run.
	Seed uint64
	// LocalSearch enables the hash-bag/local-search connectivity
	// optimization on engines that support it (the paper's "Opt").
	LocalSearch bool
}

// Context resolves the effective execution context: Exec capped by
// Threads. Engines should run every parallel loop on the returned context.
func (o RunOptions) Context() *parallel.Exec {
	return o.Exec.Limit(o.Threads)
}

// Algorithm is one BCC engine: a named, capability-tagged computation
// from a graph to the shared core.Result representation. Implementations
// must be safe for concurrent Run calls on the same or different graphs.
type Algorithm interface {
	// Name is the registry key, a short stable identifier ("fast", "seq").
	Name() string
	// Caps reports the engine's restrictions and guarantees.
	Caps() Caps
	// Run computes the biconnected components of g. Like core.BCC, it
	// leaves the Result's topology caches (ArticulationPoints,
	// BlockCutTree) lazy, so a timed run does only the decomposition;
	// fastbcc's engine dispatch precomputes them on the run's context
	// before a Result is served.
	Run(g *graph.Graph, opt RunOptions) (*core.Result, error)
}

// Default is the name of the engine selection used when none is given.
const Default = "fast"

var (
	regMu    sync.RWMutex
	registry = map[string]Algorithm{}
)

// Register adds a to the registry under a.Name(), wrapping ConnectedOnly
// engines with the per-component normalizer (see Normalize). It panics on
// a duplicate or empty name — registration is program initialization, not
// a runtime event.
func Register(a Algorithm) {
	name := a.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate Register(%q)", name))
	}
	registry[name] = Normalize(a)
}

// Lookup returns the registered engine for name; "" selects Default.
func Lookup(name string) (Algorithm, bool) {
	if name == "" {
		name = Default
	}
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// Get is Lookup returning an error that lists the valid names — the
// serving layers surface it directly to clients.
func Get(name string) (Algorithm, error) {
	a, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("engine: %w %q (have %v)", ErrUnknownAlgorithm, name, Names())
	}
	return a, nil
}

// Names returns the registered engine names, Default first, the rest
// sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if (out[i] == Default) != (out[j] == Default) {
			return out[i] == Default
		}
		return out[i] < out[j]
	})
	return out
}

// All returns the registered engines in Names() order.
func All() []Algorithm {
	names := Names()
	out := make([]Algorithm, 0, len(names))
	regMu.RLock()
	defer regMu.RUnlock()
	for _, name := range names {
		out = append(out, registry[name])
	}
	return out
}
