package graph

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

func benchGraph(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n*deg/2)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{V(rng.Intn(i)), V(i)}) // connected
	}
	for i := 0; i < n*(deg-2)/2; i++ {
		u, w := V(rng.Intn(n)), V(rng.Intn(n))
		if u != w {
			edges = append(edges, Edge{u, w})
		}
	}
	return MustFromEdges(n, edges)
}

// BenchmarkFromEdges builds the CSR of 2^20 uniformly random edges over
// 2^18 vertices (every list short) and of RMAT-16-8 (hub lists holding most
// arcs), each fed in random order and in the sorted order Edges() returns
// (the order the repository benchmark's loads use), so a gain that rests on
// input order shows as a gap between the two. Loops run on GOMAXPROCS
// workers, so -cpu sets the worker count.
func BenchmarkFromEdges(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 18
	uniform := make([]Edge, 1<<20)
	for i := range uniform {
		uniform[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
	}
	for _, in := range []struct {
		name  string
		n     int
		edges []Edge
	}{{"uniform", n, uniform}, {"rmat", 1 << 16, rmatEdges(rng, 16, 8)}} {
		sorted := MustFromEdges(in.n, in.edges).Edges()
		shuffled := append([]Edge(nil), sorted...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range []struct {
			name  string
			edges []Edge
		}{{"random", shuffled}, {"sorted", sorted}} {
			b.Run(in.name+"/"+order.name, func(b *testing.B) {
				e := parallel.NewExec(runtime.GOMAXPROCS(0))
				defer e.Close()
				for b.Loop() {
					if _, err := FromEdgesIn(e, in.n, order.edges, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkBFSLowDiameter(b *testing.B) {
	g := benchGraph(1<<17, 16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0)
	}
}

func BenchmarkBFSChain(b *testing.B) {
	n := 200000
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{V(i), V(i + 1)}
	}
	g := MustFromEdges(n, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0)
	}
}
