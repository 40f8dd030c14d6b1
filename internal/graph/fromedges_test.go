package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
	"repro/internal/prim"
)

// fromEdgesAtomicReference is the historical CSR construction — atomic
// degree counting, prefix-sum offsets, atomic-cursor scatter, sorted
// neighbor lists — kept here as the specification the atomic-free
// construction must reproduce bit-for-bit.
func fromEdgesAtomicReference(n int, edges []Edge) *Graph {
	deg := make([]int32, n+1)
	parallel.ForBlock(len(edges), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&deg[edges[i].U], 1)
			atomic.AddInt32(&deg[edges[i].W], 1)
		}
	})
	total := prim.ExclusiveScanInt32(deg)
	adj := make([]V, total)
	cursor := make([]int32, n)
	copy(cursor, deg[:n])
	parallel.ForBlock(len(edges), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, w := edges[i].U, edges[i].W
			adj[atomic.AddInt32(&cursor[u], 1)-1] = w
			adj[atomic.AddInt32(&cursor[w], 1)-1] = u
		}
	})
	g := &Graph{N: int32(n), Offsets: deg, Adj: adj}
	parallel.ForBlock(n, 256, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nb := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
			sort.Slice(nb, func(a, b int) bool { return nb[a] < nb[b] })
		}
	})
	return g
}

func equalGraphs(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("N: got %d want %d", got.N, want.N)
	}
	if len(got.Offsets) != len(want.Offsets) || len(got.Adj) != len(want.Adj) {
		t.Fatalf("shape: got %d offsets, %d arcs; want %d, %d", len(got.Offsets), len(got.Adj), len(want.Offsets), len(want.Adj))
	}
	for v := 0; v <= int(got.N); v++ {
		if got.Offsets[v] != want.Offsets[v] {
			t.Fatalf("Offsets[%d]: got %d want %d", v, got.Offsets[v], want.Offsets[v])
		}
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("Adj[%d]: got %d want %d", i, got.Adj[i], want.Adj[i])
		}
	}
}

// TestFromEdgesMatchesAtomicReference checks, on random multigraphs (with
// self-loops and parallel edges), that the atomic-free construction is
// deterministic and equal to the old atomic-scatter output. Run under
// -race this also exercises the per-worker scatter ranges for overlap.
func TestFromEdgesMatchesAtomicReference(t *testing.T) {
	old := parallel.SetProcs(4)
	defer parallel.SetProcs(old)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(2000)
		m := rng.Intn(4 * n)
		edges := make([]Edge, m)
		for i := range edges {
			u := V(rng.Intn(n))
			w := V(rng.Intn(n))
			if rng.Intn(10) == 0 {
				w = u // self-loop
			}
			edges[i] = Edge{u, w}
			if i > 0 && rng.Intn(8) == 0 {
				edges[i] = edges[rng.Intn(i)] // parallel edge
			}
		}
		want := fromEdgesAtomicReference(n, edges)
		got := MustFromEdges(n, edges)
		equalGraphs(t, got, want)
		// Repeat with a shared arena: contents must be identical again
		// (scratch buffers are dirty on reuse).
		sc := NewScratch()
		for r := 0; r < 3; r++ {
			g2, err := FromEdgesIn(nil, n, edges, sc)
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, g2, want)
		}
	}
	// Shapes the transpose's arc-balanced worker ranges meet: one list
	// holding half of all arcs, a power-law degree spread, a list of
	// self-loops only, and a single vertex. Each is fed in Edges() order,
	// shuffled and reversed, on 1, 2 and 4 workers; the star takes the
	// atomic scatter at 4 workers and the histogram scatter below.
	star := make([]Edge, 5000)
	for i := range star {
		star[i] = Edge{2500, V(i)}
		if i >= 2500 {
			star[i].W++
		}
	}
	loops := []Edge{{0, 0}, {0, 0}, {0, 0}}
	for i := 0; i < 3000; i++ {
		loops = append(loops, Edge{V(1 + rng.Intn(999)), V(1 + rng.Intn(999))})
	}
	for _, in := range []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"star5000", 5001, star},
		{"rmat12-8", 1 << 12, rmatEdges(rng, 12, 8)},
		{"selfloop-only-vertex", 1000, loops},
		{"n1", 1, []Edge{{0, 0}, {0, 0}}},
	} {
		want := fromEdgesAtomicReference(in.n, in.edges)
		sorted := want.Edges()
		shuffled := append([]Edge(nil), sorted...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		reversed := append([]Edge(nil), sorted...)
		slices.Reverse(reversed)
		for _, order := range []struct {
			name  string
			edges []Edge
		}{{"sorted", sorted}, {"shuffled", shuffled}, {"reversed", reversed}} {
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/p%d", in.name, order.name, p), func(t *testing.T) {
					e := parallel.NewExec(p)
					defer e.Close()
					g, err := FromEdgesIn(e, in.n, order.edges, nil)
					if err != nil {
						t.Fatal(err)
					}
					equalGraphs(t, g, want)
				})
			}
		}
	}
}

// rmatEdges draws the edge list of an RMAT graph with 2^scale vertices
// and edgeFactor·2^scale edges (quadrant probabilities 0.57/0.19/0.19,
// the generator's), self-loops and parallel edges included.
func rmatEdges(rng *rand.Rand, scale, edgeFactor int) []Edge {
	edges := make([]Edge, edgeFactor<<scale)
	for i := range edges {
		var u, w V
		for bit := 0; bit < scale; bit++ {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				w |= 1 << bit
			case r < 0.95:
				u |= 1 << bit
			default:
				u |= 1 << bit
				w |= 1 << bit
			}
		}
		edges[i] = Edge{u, w}
	}
	return edges
}

// TestFromEdgesAtomicFallback drives the sparse-graph/many-workers regime
// where FromEdgesIn dispatches to the atomic-cursor fallback (worker
// cap 1+m/n far below Procs) and checks it still matches the reference.
func TestFromEdgesAtomicFallback(t *testing.T) {
	old := parallel.SetProcs(16)
	defer parallel.SetProcs(old)
	rng := rand.New(rand.NewSource(11))
	n := 5000
	edges := make([]Edge, n/4) // m << n → nw == 1 → fallback
	for i := range edges {
		edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
	}
	want := fromEdgesAtomicReference(n, edges)
	equalGraphs(t, MustFromEdges(n, edges), want)
	sc := NewScratch()
	for r := 0; r < 2; r++ {
		g, err := FromEdgesIn(nil, n, edges, sc)
		if err != nil {
			t.Fatal(err)
		}
		equalGraphs(t, g, want)
	}
}

func TestFromEdgesScratchReusesBuffers(t *testing.T) {
	sc := NewScratch()
	edges := []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	g1, err := FromEdgesIn(nil, 4, edges, sc)
	if err != nil {
		t.Fatal(err)
	}
	b := sc.GetInt32(4)
	for i := range b {
		b[i] = -7 // dirty the buffer the next build will reuse
	}
	sc.PutInt32(b)
	g2, err := FromEdgesIn(nil, 4, edges, sc)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g2, g1)
}
