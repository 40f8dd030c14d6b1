package conn

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Ablation benches for the connectivity choices FAST-BCC exposes: the
// local-search optimization the paper ablates in Fig. 6, and the cost of
// harvesting the spanning forest, each per graph category.

func ablationGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":  gen.RMAT(14, 8, 1),
		"grid":  gen.Grid2D(160, 160, true),
		"chain": gen.Chain(100000),
	}
}

func BenchmarkConnLocalSearch(b *testing.B) {
	for name, g := range ablationGraphs() {
		for _, ls := range []bool{false, true} {
			label := "orig"
			if ls {
				label = "opt"
			}
			b.Run(name+"/"+label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Connectivity(g, Options{LocalSearch: ls, Seed: 7})
				}
			})
		}
	}
}

func BenchmarkConnSpanningForest(b *testing.B) {
	// Cost of harvesting the spanning forest (needed by First-CC but not
	// Last-CC).
	g := gen.RMAT(14, 8, 2)
	for _, want := range []bool{false, true} {
		label := "labels-only"
		if want {
			label = "with-forest"
		}
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Connectivity(g, Options{Seed: 7, WantForest: want})
			}
		})
	}
}
