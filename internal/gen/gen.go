// Package gen produces the deterministic benchmark graphs used to reproduce
// the paper's evaluation (Tab. 2) at laptop scale, plus adversarial shapes
// for tests.
//
// The paper's suite spans five categories whose behavior is determined by
// diameter class and edge/vertex ratio. The generators here control both:
//
//   - social/web graphs   → RMAT power-law graphs (low diameter, skewed)
//   - road graphs         → 2-D grids with random diagonal perturbation
//   - k-NN graphs         → k nearest neighbors of synthetic 2-D points
//   - synthetic graphs    → circular grids, sampled grids, and chains,
//     exactly as defined in Sec. 6 of the paper
//
// All generators take an explicit seed and are reproducible.
package gen

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prim"
)

// Chain returns a path graph of n vertices (the paper's Chn7/Chn8 shape).
func Chain(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i), W: int32(i + 1)})
	}
	return graph.MustFromEdges(n, edges)
}

// Cycle returns a cycle of n vertices.
func Cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i), W: int32((i + 1) % n)})
	}
	return graph.MustFromEdges(n, edges)
}

// Grid2D returns a rows×cols grid. When circular is true each row and
// column wraps around, matching the paper's SQR/REC graphs ("each row and
// column in grid graphs are circular").
func Grid2D(rows, cols int, circular bool) *graph.Graph {
	n := rows * cols
	id := func(r, c int) int32 { return int32(r*cols + c) }
	edges := make([]graph.Edge, 0, 2*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), W: id(r, c+1)})
			} else if circular && cols > 2 {
				edges = append(edges, graph.Edge{U: id(r, c), W: id(r, 0)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), W: id(r+1, c)})
			} else if circular && rows > 2 {
				edges = append(edges, graph.Edge{U: id(r, c), W: id(0, c)})
			}
		}
	}
	return graph.MustFromEdges(n, edges)
}

// SampledGrid returns a circular rows×cols grid where each edge is kept
// independently with probability p (the paper's SQR'/REC' use p = 0.6).
func SampledGrid(rows, cols int, p float64, seed uint64) *graph.Graph {
	full := Grid2D(rows, cols, true)
	all := full.Edges()
	rng := prim.NewRNG(seed)
	kept := all[:0]
	for _, e := range all {
		if rng.Float64() < p {
			kept = append(kept, e)
		}
	}
	return graph.MustFromEdges(rows*cols, kept)
}

// RoadLike returns a grid-with-perturbation graph that mimics road
// networks: a non-circular grid plus a fraction diag of random diagonal
// shortcuts, giving low average degree and large diameter.
func RoadLike(rows, cols int, diag float64, seed uint64) *graph.Graph {
	base := Grid2D(rows, cols, false)
	edges := base.Edges()
	rng := prim.NewRNG(seed)
	extra := int(diag * float64(rows*cols))
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for i := 0; i < extra; i++ {
		r := rng.Intn(rows - 1)
		c := rng.Intn(cols - 1)
		edges = append(edges, graph.Edge{U: id(r, c), W: id(r+1, c+1)})
	}
	return graph.MustFromEdges(rows*cols, edges)
}

// RMAT returns a recursive-matrix power-law graph with 2^scale vertices and
// about edgeFactor·2^scale undirected edges, using the standard
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) parameters. The result resembles
// social/web graphs: skewed degrees and low diameter. Self-loops are
// dropped; parallel edges are kept (the algorithms tolerate them).
//
// The graph does not depend on the worker count: each fixed chunk of
// max(4096, ⌈m/8⌉) edges draws from its own RNG stream, seeded by the
// chunk's first edge index. Those are the blocks parallel.ForBlock cuts
// at two workers, so the graphs are the ones earlier versions generated
// at two workers.
func RMAT(scale int, edgeFactor int, seed uint64) *graph.Graph {
	n := 1 << scale
	m := edgeFactor * n
	edges := make([]graph.Edge, m)
	chunk := max(4096, (m+7)/8)
	parallel.ForGrain((m+chunk-1)/chunk, 1, func(c int) {
		lo := c * chunk
		hi := min(lo+chunk, m)
		rng := prim.NewRNG(seed + uint64(lo)*0x9e3779b9)
		for i := lo; i < hi; i++ {
			u, w := rmatEdge(scale, rng)
			edges[i] = graph.Edge{U: u, W: w}
		}
	})
	kept := edges[:0]
	for _, e := range edges {
		if e.U != e.W {
			kept = append(kept, e)
		}
	}
	return graph.MustFromEdges(n, kept)
}

func rmatEdge(scale int, rng *prim.RNG) (int32, int32) {
	const a, b, c = 0.57, 0.19, 0.19
	var u, w int32
	for bit := 0; bit < scale; bit++ {
		r := rng.Float64()
		switch {
		case r < a:
			// top-left quadrant: no bits set
		case r < a+b:
			w |= 1 << uint(bit)
		case r < a+b+c:
			u |= 1 << uint(bit)
		default:
			u |= 1 << uint(bit)
			w |= 1 << uint(bit)
		}
	}
	return u, w
}

// ER returns an Erdős–Rényi G(n, m) multigraph with m uniformly random
// edges (self-loops dropped, so slightly fewer than m may remain).
func ER(n, m int, seed uint64) *graph.Graph {
	edges := make([]graph.Edge, 0, m)
	rng := prim.NewRNG(seed)
	for i := 0; i < m; i++ {
		u, w := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != w {
			edges = append(edges, graph.Edge{U: u, W: w})
		}
	}
	return graph.MustFromEdges(n, edges)
}

// RandomTree returns a uniformly-attached random tree: vertex i attaches to
// a uniform vertex in [0, i).
func RandomTree(n int, seed uint64) *graph.Graph {
	rng := prim.NewRNG(seed)
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(i)), W: int32(i)})
	}
	return graph.MustFromEdges(n, edges)
}

// Star returns a star with center 0 and n-1 leaves: every edge is a bridge
// and the center is an articulation point of n-1 blocks.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, W: int32(i)})
	}
	return graph.MustFromEdges(n, edges)
}

// Clique returns the complete graph K_n — a single biconnected component.
func Clique(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: int32(i), W: int32(j)})
		}
	}
	return graph.MustFromEdges(n, edges)
}

// CliqueChain returns k cliques of size s chained by single shared
// (articulation) vertices: exactly k biconnected components.
func CliqueChain(k, s int) *graph.Graph {
	if s < 2 {
		panic("gen.CliqueChain: clique size must be >= 2")
	}
	n := k*(s-1) + 1
	var edges []graph.Edge
	for c := 0; c < k; c++ {
		base := c * (s - 1)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, graph.Edge{U: int32(base + i), W: int32(base + j)})
			}
		}
	}
	return graph.MustFromEdges(n, edges)
}

// Barbell returns two cliques of size s joined by a path of length bridge
// (bridge >= 1 edges): the path edges are bridges.
func Barbell(s, bridge int) *graph.Graph {
	n := 2*s + bridge - 1
	var edges []graph.Edge
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			edges = append(edges, graph.Edge{U: int32(i), W: int32(j)})
			edges = append(edges, graph.Edge{U: int32(s + bridge - 1 + i), W: int32(s + bridge - 1 + j)})
		}
	}
	prev := int32(s - 1)
	for i := 0; i < bridge; i++ {
		next := int32(s + i)
		if i == bridge-1 {
			next = int32(s + bridge - 1)
		}
		edges = append(edges, graph.Edge{U: prev, W: next})
		prev = next
	}
	return graph.MustFromEdges(n, edges)
}

// KNN returns the symmetrized k-nearest-neighbor graph of n pseudo-random
// points in the unit square, computed exactly with grid bucketing
// (each vertex gets k edges to its k nearest points, then the union of the
// directed edges is symmetrized, as in the paper's k-NN graphs).
func KNN(n, k int, seed uint64) *graph.Graph {
	if k >= n {
		panic("gen.KNN: k must be < n")
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	rng := prim.NewRNG(seed)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	// Bucket points into a g×g grid with ~2 points per cell expected.
	g := 1
	for g*g*2 < n {
		g++
	}
	cellOf := func(i int) (int, int) {
		cx := int(xs[i] * float64(g))
		cy := int(ys[i] * float64(g))
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		return cx, cy
	}
	buckets := make([][]int32, g*g)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		buckets[cy*g+cx] = append(buckets[cy*g+cx], int32(i))
	}
	edges := make([]graph.Edge, n*k)
	parallel.ForBlock(n, 512, func(lo, hi int) {
		type cand struct {
			d float64
			j int32
		}
		cands := make([]cand, 0, 64)
		for i := lo; i < hi; i++ {
			cx, cy := cellOf(i)
			cands = cands[:0]
			// Expand rings of cells until we have k candidates whose
			// distance bound is certain.
			for ring := 0; ; ring++ {
				added := false
				for dy := -ring; dy <= ring; dy++ {
					for dx := -ring; dx <= ring; dx++ {
						if max(abs(dx), abs(dy)) != ring {
							continue
						}
						x, y := cx+dx, cy+dy
						if x < 0 || x >= g || y < 0 || y >= g {
							continue
						}
						added = true
						for _, j := range buckets[y*g+x] {
							if int(j) == i {
								continue
							}
							ddx := xs[i] - xs[j]
							ddy := ys[i] - ys[j]
							cands = append(cands, cand{ddx*ddx + ddy*ddy, j})
						}
					}
				}
				if len(cands) >= k {
					// Points within ring r are guaranteed closer than any
					// point beyond ring r+1 when kth distance <= r/g.
					sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
					bound := float64(ring) / float64(g)
					if cands[k-1].d <= bound*bound || ring >= g {
						break
					}
				}
				if !added && ring > 2*g {
					break // degenerate: scanned everything
				}
			}
			for t := 0; t < k; t++ {
				edges[i*k+t] = graph.Edge{U: int32(i), W: cands[t].j}
			}
		}
	})
	return graph.MustFromEdges(n, edges)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Disjoint returns the disjoint union of the given graphs (vertex ids are
// shifted), for testing multi-component behavior.
func Disjoint(gs ...*graph.Graph) *graph.Graph {
	var n int
	var edges []graph.Edge
	for _, g := range gs {
		for _, e := range g.Edges() {
			edges = append(edges, graph.Edge{U: e.U + int32(n), W: e.W + int32(n)})
		}
		n += g.NumVertices()
	}
	return graph.MustFromEdges(n, edges)
}
