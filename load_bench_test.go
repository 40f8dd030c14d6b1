package fastbcc_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	fastbcc "repro"
	"repro/internal/gen"
	"repro/internal/parallel"
)

// BenchmarkLoad measures one load of bccperf's build loop,
// NewGraphFromEdges over the graph's Edges() then Store.Load, on the
// seed-7 inputs of bccperf's social (RMAT-16-8) and grid (360x360 sampled
// grid, p = 0.6) workloads, generated at 2 workers as bccperf generates
// them. Per load it reports csr_ms (NewGraphFromEdges), the four phase
// times of the load's BuildTrace (first_cc_ms, rooting_ms, tagging_ms,
// last_cc_ms) and rest_ms, the rest of Store.Load: topology, index and
// publish. Loops run on GOMAXPROCS workers, so -cpu sets the worker
// count.
func BenchmarkLoad(b *testing.B) {
	for _, in := range []struct {
		name string
		gen  func() *fastbcc.Graph
	}{
		{"rmat", func() *fastbcc.Graph { return gen.RMAT(16, 8, 7) }},
		{"grid", func() *fastbcc.Graph { return gen.SampledGrid(360, 360, 0.6, 7) }},
	} {
		b.Run(in.name, func(b *testing.B) {
			// The generators' output depends on their block split.
			old := parallel.SetProcs(2)
			src := in.gen()
			parallel.SetProcs(runtime.GOMAXPROCS(0))
			defer parallel.SetProcs(old)
			n, edges := src.NumVertices(), src.Edges()
			st := fastbcc.NewStore(runtime.GOMAXPROCS(0))
			defer st.Close()
			load := func() (csr, rest time.Duration, ph fastbcc.PhaseTimes) {
				t0 := time.Now()
				g, err := fastbcc.NewGraphFromEdges(n, edges)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				snap, err := st.Load(context.Background(), "g", g, nil)
				if err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				defer snap.Release()
				ts, err := st.Trace("g")
				if err != nil || len(ts) == 0 || ts[0].Version != snap.Version {
					b.Fatalf("no build trace for version %d: %v", snap.Version, err)
				}
				ph = ts[0].Phases
				return t1.Sub(t0), t2.Sub(t1) - ph.FirstCC - ph.Rooting - ph.Tagging - ph.LastCC, ph
			}
			load() // warm the Runner's arena
			var csr, rest time.Duration
			var sum fastbcc.PhaseTimes
			for b.Loop() {
				c, r, ph := load()
				csr += c
				rest += r
				sum.FirstCC += ph.FirstCC
				sum.Rooting += ph.Rooting
				sum.Tagging += ph.Tagging
				sum.LastCC += ph.LastCC
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(csr), "csr_ms")
			b.ReportMetric(ms(sum.FirstCC), "first_cc_ms")
			b.ReportMetric(ms(sum.Rooting), "rooting_ms")
			b.ReportMetric(ms(sum.Tagging), "tagging_ms")
			b.ReportMetric(ms(sum.LastCC), "last_cc_ms")
			b.ReportMetric(ms(rest), "rest_ms")
		})
	}
}
