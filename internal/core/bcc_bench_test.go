package core

import (
	"runtime"
	"testing"
	"time"

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

// perfInputs are the seed-7 inputs of bccperf's social (RMAT-16-8) and
// grid (360x360 sampled grid, p = 0.6) workloads.
var perfInputs = []struct {
	name string
	gen  func() *graph.Graph
}{
	{"rmat", func() *graph.Graph { return gen.RMAT(16, 8, 7) }},
	{"grid", func() *graph.Graph { return gen.SampledGrid(360, 360, 0.6, 7) }},
}

// perfGraph generates a perfInputs graph at 2 workers, as bccperf does:
// the generators' output depends on their block split.
func perfGraph(mk func() *graph.Graph) *graph.Graph {
	old := parallel.SetProcs(2)
	defer parallel.SetProcs(old)
	return mk()
}

// BenchmarkTopology measures what a serving build spends after Last-CC,
// traced as core.topology_ms: the articulation points and the block-cut
// tree, built afresh each iteration, on perfInputs. Loops run on
// GOMAXPROCS workers, so -cpu sets the worker count.
func BenchmarkTopology(b *testing.B) {
	for _, in := range perfInputs {
		b.Run(in.name, func(b *testing.B) {
			r := BCC(perfGraph(in.gen), Options{Seed: 7})
			e := parallel.NewExec(runtime.GOMAXPROCS(0))
			defer e.Close()
			for b.Loop() {
				buildBlockCutTree(e, r, computeArticulationPoints(e, r))
			}
		})
	}
}

// BenchmarkPhases measures the four phases of a FAST-BCC build on
// perfInputs, as a Store build runs them: LDD seed 0 and a warm arena. It
// reports each phase's mean time per build as first_cc_ms, rooting_ms,
// tagging_ms and last_cc_ms, the per-layer rows bccperf traces as
// core.*_ms. Loops run on GOMAXPROCS workers, so -cpu sets the worker
// count.
func BenchmarkPhases(b *testing.B) {
	for _, in := range perfInputs {
		b.Run(in.name, func(b *testing.B) {
			g := perfGraph(in.gen)
			e := parallel.NewExec(runtime.GOMAXPROCS(0))
			defer e.Close()
			opt := Options{Scratch: graph.NewScratch(), Exec: e}
			BCC(g, opt) // warm the arena
			var sum StepTimes
			for b.Loop() {
				t := BCC(g, opt).Times
				sum.FirstCC += t.FirstCC
				sum.Rooting += t.Rooting
				sum.Tagging += t.Tagging
				sum.LastCC += t.LastCC
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(sum.FirstCC), "first_cc_ms")
			b.ReportMetric(ms(sum.Rooting), "rooting_ms")
			b.ReportMetric(ms(sum.Tagging), "tagging_ms")
			b.ReportMetric(ms(sum.LastCC), "last_cc_ms")
		})
	}
}
