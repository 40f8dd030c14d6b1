package engine

import (
	"repro/internal/conn"
	"repro/internal/core"
	"repro/internal/graph"
)

// Normalize returns a whose restrictions are lifted so Run accepts any
// input: a ConnectedOnly engine is wrapped to run per connected component
// and merge the labels. Engines without restrictions are returned as-is.
// The registry normalizes on Register, so everything obtained through
// Lookup/Get/All is already total.
func Normalize(a Algorithm) Algorithm {
	if a.Caps().ConnectedOnly {
		return &componentSplit{raw: a}
	}
	return a
}

// blockLister is an optional engine interface: an engine whose native
// output is an explicit block list exposes it so the per-component
// normalizer consumes blocks directly, instead of having every
// subgraph's Result adapted (label/head arrays over a BFS forest) only to
// be flattened back to blocks and re-adapted.
type blockLister interface {
	runBlocks(g *graph.Graph, opt RunOptions) ([][]int32, error)
}

// componentSplit runs a ConnectedOnly engine per connected component and
// merges the per-component block lists back onto original vertex ids with
// FromBlocks. Connected inputs (the common case, checked with one
// connectivity pass) go straight to the raw engine.
type componentSplit struct {
	raw Algorithm
}

func (c *componentSplit) Name() string { return c.raw.Name() }

// Caps still reports the raw engine's flags — ConnectedOnly is
// informational ("this baseline natively rejects disconnected inputs",
// the paper's Tab. 2 "n" entries) and tells callers the wrapper is in
// play, not that Run will fail.
func (c *componentSplit) Caps() Caps { return c.raw.Caps() }

func (c *componentSplit) Run(g *graph.Graph, opt RunOptions) (*core.Result, error) {
	n := int(g.N)
	e := opt.Context()
	cc := conn.Connectivity(g, conn.Options{Seed: opt.Seed, Exec: e})
	if cc.NumComp <= 1 {
		return c.raw.Run(g, opt)
	}

	// Group vertices by component representative: newID doubles as the
	// per-component dense id, verts is bucketed via a counting pass.
	comp := cc.Comp
	newID := make([]int32, n)
	counts := map[int32]int32{}
	for v := 0; v < n; v++ {
		r := comp[v]
		newID[v] = counts[r]
		counts[r]++
	}
	verts := map[int32][]int32{}
	for v := 0; v < n; v++ {
		r := comp[v]
		if verts[r] == nil {
			verts[r] = make([]int32, counts[r])
		}
		verts[r][newID[v]] = int32(v)
	}

	// Run the raw engine on each induced subgraph (components in
	// representative order for determinism of the merged block list, which
	// FromBlocks canonicalizes anyway) and collect blocks in original ids.
	var blocks [][]int32
	for r := int32(0); r < int32(n); r++ {
		vs := verts[r]
		if vs == nil {
			continue
		}
		sub, err := inducedSubgraph(g, vs, newID)
		if err != nil {
			return nil, err
		}
		subOpt := opt
		subOpt.Exec, subOpt.Threads = e, 0
		subOpt.Source = 0
		if int(opt.Source) < n && opt.Source >= 0 && comp[opt.Source] == r {
			subOpt.Source = newID[opt.Source]
		}
		var subBlocks [][]int32
		if bl, ok := c.raw.(blockLister); ok {
			subBlocks, err = bl.runBlocks(sub, subOpt)
		} else {
			var res *core.Result
			res, err = c.raw.Run(sub, subOpt)
			if res != nil {
				subBlocks = res.Blocks()
			}
		}
		if err != nil {
			return nil, err
		}
		for _, blk := range subBlocks {
			orig := make([]int32, len(blk))
			for i, v := range blk {
				orig[i] = vs[v]
			}
			blocks = append(blocks, orig)
		}
	}
	return FromBlocks(g, blocks), nil
}

// inducedSubgraph builds the subgraph on vs (original ids, dense order
// matching newID) with parallel edges preserved and self-loops dropped
// (they never affect biconnectivity).
func inducedSubgraph(g *graph.Graph, vs []int32, newID []int32) (*graph.Graph, error) {
	var edges []graph.Edge
	for _, v := range vs {
		for _, w := range g.Neighbors(v) {
			if v < w {
				edges = append(edges, graph.Edge{U: newID[v], W: newID[w]})
			}
		}
	}
	return graph.FromEdges(len(vs), edges)
}
