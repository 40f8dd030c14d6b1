package core

import (
	"repro/internal/conn"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// FilteredTwoECC is the 2ECC labelling TwoECCIn replaced, kept as the
// reference its labels must equal exactly: one LDD connectivity run over
// all m arcs of g that skips every tree edge the label-size test calls a
// bridge, then dense labels by increasing component representative. It is
// exported for the engine and merge tests of package core_test.
func FilteredTwoECC(e *parallel.Exec, r *Result, g *graph.Graph) []int32 {
	count := r.LabelSizes()
	isBridge := func(u, w int32) bool {
		// Orient to (parent, child).
		if r.Parent[w] != u {
			u, w = w, u
			if r.Parent[w] != u {
				return false
			}
		}
		if count[r.Label[w]] != 1 {
			return false
		}
		mult := 0
		for _, x := range g.Neighbors(w) {
			if x == u {
				mult++
			}
		}
		return mult == 1
	}
	cc := conn.Connectivity(g, conn.Options{
		Seed:   0x2ecc,
		Filter: func(u, w int32) bool { return !isBridge(u, w) },
		Exec:   e,
	})
	return cc.NormalizeIn(e)
}
