package fastbcc_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	fastbcc "repro"
	"repro/internal/gen"
	"repro/internal/parallel"
)

// benchInputs are the seed-7 inputs of bccperf's social (RMAT-16-8) and
// grid (360x360 sampled grid, p = 0.6) workloads.
var benchInputs = []struct {
	name string
	gen  func() *fastbcc.Graph
}{
	{"rmat", func() *fastbcc.Graph { return gen.RMAT(16, 8, 7) }},
	{"grid", func() *fastbcc.Graph { return gen.SampledGrid(360, 360, 0.6, 7) }},
}

// genAt2 generates an input at 2 workers, as bccperf generates it
// (the generators' output depends on their block split), and runs the
// default context on GOMAXPROCS workers for the rest of b.
func genAt2(b *testing.B, gen func() *fastbcc.Graph) *fastbcc.Graph {
	old := parallel.SetProcs(2)
	g := gen()
	parallel.SetProcs(runtime.GOMAXPROCS(0))
	b.Cleanup(func() { parallel.SetProcs(old) })
	return g
}

// msPerOp converts a total over b.N iterations to milliseconds per one.
func msPerOp(b *testing.B, d time.Duration) float64 {
	return d.Seconds() * 1e3 / float64(b.N)
}

// BenchmarkLoad measures one load of bccperf's build loop,
// NewGraphFromEdges over the graph's Edges() then Store.Load, on
// benchInputs. Per load it reports csr_ms (NewGraphFromEdges), the four
// phase times of the load's BuildTrace (first_cc_ms, rooting_ms,
// tagging_ms, last_cc_ms) and rest_ms, the rest of Store.Load: topology,
// index and publish. Loops run on GOMAXPROCS workers, so -cpu sets the
// worker count.
func BenchmarkLoad(b *testing.B) {
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			src := genAt2(b, in.gen)
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
			b.ReportMetric(msPerOp(b, csr), "csr_ms")
			b.ReportMetric(msPerOp(b, sum.FirstCC), "first_cc_ms")
			b.ReportMetric(msPerOp(b, sum.Rooting), "rooting_ms")
			b.ReportMetric(msPerOp(b, sum.Tagging), "tagging_ms")
			b.ReportMetric(msPerOp(b, sum.LastCC), "last_cc_ms")
			b.ReportMetric(msPerOp(b, rest), "rest_ms")
		})
	}
}

// BenchmarkApplyBatch measures a batch of k insertions whose endpoints
// the serving index reports as connected but not biconnected, on
// benchInputs and a Store with bccd's default 25ms coalesce window. Per
// batch it reports ack_ms, ApplyBatch's wall time, and fresh_ms, the time
// from the call until the serving index reports every pair biconnected.
// FlushDeltas runs between batches, and each batch draws its seeded pairs
// from the index the previous one left.
func BenchmarkApplyBatch(b *testing.B) {
	ctx := context.Background()
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			src := genAt2(b, in.gen)
			n := src.NumVertices()
			for _, k := range []int{1, 32} {
				b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
					st := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
						Workers:          runtime.GOMAXPROCS(0),
						MutationCoalesce: 25 * time.Millisecond,
					})
					defer st.Close()
					snap, err := st.Load(ctx, "g", src, nil)
					if err != nil {
						b.Fatal(err)
					}
					snap.Release()
					// biconnected reports whether the serving index has every
					// pair of adds biconnected; pick draws k seeded pairs it
					// has connected but not biconnected.
					biconnected := func(adds []fastbcc.Edge) bool {
						cur, err := st.Acquire("g")
						if err != nil {
							b.Fatal(err)
						}
						defer cur.Release()
						for _, e := range adds {
							if !cur.Index.Biconnected(e.U, e.W) {
								return false
							}
						}
						return true
					}
					rng := rand.New(rand.NewSource(int64(k)))
					pick := func() []fastbcc.Edge {
						cur, err := st.Acquire("g")
						if err != nil {
							b.Fatal(err)
						}
						defer cur.Release()
						adds := make([]fastbcc.Edge, 0, k)
						for len(adds) < k {
							u, w := int32(rng.Intn(n)), int32(rng.Intn(n))
							if u != w && cur.Index.Connected(u, w) && !cur.Index.Biconnected(u, w) {
								adds = append(adds, fastbcc.Edge{U: u, W: w})
							}
						}
						return adds
					}
					batch := func() (ack, fresh time.Duration) {
						adds := pick()
						t0 := time.Now()
						if _, err := st.ApplyBatch(ctx, "g", adds, nil); err != nil {
							b.Fatal(err)
						}
						ack = time.Since(t0)
						for !biconnected(adds) {
							if time.Since(t0) > 10*time.Second {
								b.Fatalf("%d pairs not biconnected 10s after the batch", k)
							}
							time.Sleep(100 * time.Microsecond)
						}
						fresh = time.Since(t0)
						if err := st.FlushDeltas(ctx, "g"); err != nil {
							b.Fatal(err)
						}
						return ack, fresh
					}
					batch() // warm the Runner's arena
					var ack, fresh time.Duration
					for b.Loop() {
						a, f := batch()
						ack += a
						fresh += f
					}
					b.ReportMetric(msPerOp(b, ack), "ack_ms")
					b.ReportMetric(msPerOp(b, fresh), "fresh_ms")
				})
			}
		})
	}
}
