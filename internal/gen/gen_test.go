package gen

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

func TestChain(t *testing.T) {
	g := Chain(100)
	if g.NumVertices() != 100 || g.NumEdges() != 99 {
		t.Fatalf("chain: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(50) != 2 || g.Degree(99) != 1 {
		t.Fatal("chain degrees wrong")
	}
	if graph.ApproxDiameter(g, 0) != 99 {
		t.Fatal("chain diameter wrong")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(10)
	if g.NumEdges() != 10 {
		t.Fatalf("cycle m=%d", g.NumEdges())
	}
	for v := int32(0); v < 10; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("cycle degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestGrid2DNonCircular(t *testing.T) {
	g := Grid2D(3, 4, false)
	if g.NumVertices() != 12 {
		t.Fatal("grid n wrong")
	}
	// 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17
	if g.NumEdges() != 17 {
		t.Fatalf("grid m=%d, want 17", g.NumEdges())
	}
	if g.Degree(0) != 2 { // corner
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
}

func TestGrid2DCircular(t *testing.T) {
	g := Grid2D(4, 5, true)
	// circular: every vertex has degree 4
	for v := int32(0); v < g.N; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("circular grid degree(%d) = %d", v, g.Degree(v))
		}
	}
	if g.NumEdges() != 2*4*5 {
		t.Fatalf("circular grid m=%d", g.NumEdges())
	}
}

func TestGrid2DCircularSkipsTinyWrap(t *testing.T) {
	// rows or cols == 2 must not create parallel wrap edges.
	g := Grid2D(2, 5, true)
	for v := int32(0); v < g.N; v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				t.Fatalf("parallel edge at %d: %v", v, nb)
			}
		}
	}
}

func TestSampledGrid(t *testing.T) {
	g := SampledGrid(30, 30, 0.6, 1)
	full := Grid2D(30, 30, true)
	if g.NumVertices() != 900 {
		t.Fatal("sampled grid n wrong")
	}
	ratio := float64(g.NumEdges()) / float64(full.NumEdges())
	if ratio < 0.5 || ratio > 0.7 {
		t.Fatalf("sampled ratio %.2f not near 0.6", ratio)
	}
	g2 := SampledGrid(30, 30, 0.6, 1)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
}

func TestRoadLike(t *testing.T) {
	g := RoadLike(40, 40, 0.1, 2)
	if g.NumVertices() != 1600 {
		t.Fatal("roadlike n wrong")
	}
	base := Grid2D(40, 40, false)
	if g.NumEdges() <= base.NumEdges() {
		t.Fatal("roadlike should add diagonals")
	}
	if d := graph.ApproxDiameter(g, 0); d < 30 {
		t.Fatalf("roadlike diameter %d too small", d)
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 3)
	if g.NumVertices() != 1024 {
		t.Fatal("rmat n wrong")
	}
	if g.NumEdges() < 7*1024 || g.NumEdges() > 8*1024 {
		t.Fatalf("rmat m=%d", g.NumEdges())
	}
	// Power-law shape: max degree far above average.
	avg := 2 * g.NumEdges() / g.NumVertices()
	if g.MaxDegree() < 4*avg {
		t.Fatalf("rmat max degree %d not skewed (avg %d)", g.MaxDegree(), avg)
	}
	// No self loops.
	for v := int32(0); v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if w == v {
				t.Fatal("rmat produced self loop")
			}
		}
	}
	// The same graph at every worker count: the scale-13 graph has 65,536
	// edge slots, enough for 8 chunks of 8,192 that 2 and 4 workers split
	// between them differently.
	for _, scale := range []int{10, 13} {
		var want []graph.Edge
		for _, p := range []int{1, 2, 4} {
			prev := parallel.SetProcs(p)
			got := RMAT(scale, 8, 3).Edges()
			parallel.SetProcs(prev)
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("rmat scale %d: %d workers give another graph than 1 worker", scale, p)
			}
		}
	}
}

func TestER(t *testing.T) {
	g := ER(1000, 5000, 4)
	if g.NumVertices() != 1000 {
		t.Fatal("er n wrong")
	}
	if g.NumEdges() < 4900 || g.NumEdges() > 5000 {
		t.Fatalf("er m=%d", g.NumEdges())
	}
}

func TestRandomTree(t *testing.T) {
	g := RandomTree(500, 5)
	if g.NumEdges() != 499 {
		t.Fatal("tree m wrong")
	}
	if !graph.ConnectedBFS(g) {
		t.Fatal("tree must be connected")
	}
}

func TestStar(t *testing.T) {
	g := Star(50)
	if g.Degree(0) != 49 || g.NumEdges() != 49 {
		t.Fatal("star shape wrong")
	}
}

func TestClique(t *testing.T) {
	g := Clique(10)
	if g.NumEdges() != 45 {
		t.Fatalf("clique m=%d", g.NumEdges())
	}
	for v := int32(0); v < 10; v++ {
		if g.Degree(v) != 9 {
			t.Fatal("clique degree wrong")
		}
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(4, 5)
	if g.NumVertices() != 4*4+1 {
		t.Fatalf("clique chain n=%d", g.NumVertices())
	}
	if g.NumEdges() != 4*10 {
		t.Fatalf("clique chain m=%d", g.NumEdges())
	}
	if !graph.ConnectedBFS(g) {
		t.Fatal("clique chain must be connected")
	}
}

func TestCliqueChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for s<2")
		}
	}()
	CliqueChain(3, 1)
}

func TestBarbell(t *testing.T) {
	g := Barbell(5, 3)
	if g.NumVertices() != 12 {
		t.Fatalf("barbell n=%d", g.NumVertices())
	}
	if g.NumEdges() != 2*10+3 {
		t.Fatalf("barbell m=%d", g.NumEdges())
	}
	if !graph.ConnectedBFS(g) {
		t.Fatal("barbell must be connected")
	}
}

func TestKNNBasic(t *testing.T) {
	n, k := 2000, 5
	g := KNN(n, k, 6)
	if g.NumVertices() != n {
		t.Fatal("knn n wrong")
	}
	// Each vertex has at least k neighbors (directed k out-edges,
	// symmetrized); parallel duplicates from mutual pairs are merged in
	// degree terms only if identical edges — FromEdges keeps multi-edges,
	// so degree >= k.
	for v := int32(0); v < g.N; v++ {
		if g.Degree(v) < k {
			t.Fatalf("knn degree(%d) = %d < k", v, g.Degree(v))
		}
	}
	if g.NumEdges() != n*k {
		t.Fatalf("knn m=%d, want %d", g.NumEdges(), n*k)
	}
	g2 := KNN(n, k, 6)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("knn not deterministic")
	}
}

func TestKNNIsExact(t *testing.T) {
	// Brute-force check on a small instance: the chosen neighbors must be
	// the true k nearest (compare multiset of distances).
	n, k := 300, 4
	g := KNN(n, k, 7)
	if g.NumEdges() != n*k {
		t.Fatalf("m=%d", g.NumEdges())
	}
	// Reconstruct points with the same RNG stream used by KNN.
	xs := make([]float64, n)
	ys := make([]float64, n)
	rng := newTestRNG(7)
	for i := 0; i < n; i++ {
		xs[i] = rng.f64()
		ys[i] = rng.f64()
	}
	for i := 0; i < n; i++ {
		ds := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			ds = append(ds, dx*dx+dy*dy)
		}
		kth := kthSmallest(ds, k)
		// Every out-edge of i within the directed construction must have
		// distance <= kth (ties allowed).
		cnt := 0
		for _, w := range g.Neighbors(int32(i)) {
			dx, dy := xs[i]-xs[w], ys[i]-ys[w]
			if dx*dx+dy*dy <= kth+1e-12 {
				cnt++
			}
		}
		if cnt < k {
			t.Fatalf("vertex %d: only %d of its neighbors are within the true k-NN distance", i, cnt)
		}
	}
}

func TestKNNPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k >= n")
		}
	}()
	KNN(3, 3, 1)
}

func TestDisjoint(t *testing.T) {
	g := Disjoint(Cycle(5), Chain(4), Star(3))
	if g.NumVertices() != 12 {
		t.Fatalf("disjoint n=%d", g.NumVertices())
	}
	if g.NumEdges() != 5+3+2 {
		t.Fatalf("disjoint m=%d", g.NumEdges())
	}
	if graph.ConnectedBFS(g) {
		t.Fatal("disjoint union should be disconnected")
	}
	if !g.HasEdge(5, 6) { // chain shifted by 5
		t.Fatal("shifted edge missing")
	}
}

// minimal mirror of prim.RNG for the reconstruction test (same constants).
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{seed} }

func (r *testRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRNG) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

func kthSmallest(ds []float64, k int) float64 {
	cp := append([]float64(nil), ds...)
	for i := 0; i < k; i++ {
		minJ := i
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[minJ] {
				minJ = j
			}
		}
		cp[i], cp[minJ] = cp[minJ], cp[i]
	}
	return cp[k-1]
}
