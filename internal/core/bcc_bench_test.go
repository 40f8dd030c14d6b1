package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// BenchmarkBCC measures one full FAST-BCC run per iteration, allocating all
// auxiliary state from the heap each time (the one-shot API).
func BenchmarkBCC(b *testing.B) {
	g := gen.RMAT(16, 8, 0xBC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BCC(g, Options{Seed: 7})
	}
}

// BenchmarkBCCScratch is the serving pattern: repeated BCC runs sharing one
// arena, so the ~16n int32 of per-run auxiliary buffers are recycled
// instead of re-allocated. Compare allocs/op against BenchmarkBCC.
func BenchmarkBCCScratch(b *testing.B) {
	g := gen.RMAT(16, 8, 0xBC)
	sc := graph.NewScratch()
	BCC(g, Options{Seed: 7, Scratch: sc}) // warm the arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BCC(g, Options{Seed: 7, Scratch: sc})
	}
}

// BenchmarkTwoECCIn measures the 2ECC labels of a FAST-BCC result on
// RMAT-16-8: the bridge tests and the union-find pass over the n parent
// edges. Loops run on GOMAXPROCS workers, so -cpu sets the worker count.
func BenchmarkTwoECCIn(b *testing.B) {
	g := gen.RMAT(16, 8, 0xBC)
	r := BCC(g, Options{Seed: 7})
	e := parallel.NewExec(runtime.GOMAXPROCS(0))
	defer e.Close()
	for b.Loop() {
		r.TwoECCIn(e, g)
	}
}

// BenchmarkTopology measures what a serving build spends after Last-CC,
// traced as core.topology_ms: the articulation points and the block-cut
// tree, built afresh each iteration, on the seed-7 inputs of bccperf's
// social (RMAT-16-8) and grid (360x360 sampled grid, p = 0.6) workloads.
// Loops run on GOMAXPROCS workers, so -cpu sets the worker count.
func BenchmarkTopology(b *testing.B) {
	for _, in := range []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"rmat", func() *graph.Graph { return gen.RMAT(16, 8, 7) }},
		{"grid", func() *graph.Graph { return gen.SampledGrid(360, 360, 0.6, 7) }},
	} {
		b.Run(in.name, func(b *testing.B) {
			// bccperf generates at 2 workers, and the generators' output
			// depends on their block split.
			old := parallel.SetProcs(2)
			g := in.gen()
			parallel.SetProcs(old)
			r := BCC(g, Options{Seed: 7})
			e := parallel.NewExec(runtime.GOMAXPROCS(0))
			defer e.Close()
			for b.Loop() {
				buildBlockCutTree(e, r, computeArticulationPoints(e, r))
			}
		})
	}
}
